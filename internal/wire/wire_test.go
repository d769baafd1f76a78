package wire

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := Uint(nil, 0)
	b = Uint(b, math.MaxUint64)
	b = Int(b, 300)
	b = Bool(b, true)
	b = Bool(b, false)
	b = Int(b, 7)
	r := NewReader(b)
	if r.Uint() != 0 || r.Uint() != math.MaxUint64 || r.Int(300) != 300 || !r.Bool() || r.Bool() || r.Index(8) != 7 {
		t.Fatal("values did not survive the round trip")
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestViolationsStick: every way an input can be wrong fails the reader,
// and a failed reader returns zeros without reading on.
func TestViolationsStick(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*Reader)
		want string
	}{
		{"empty", nil, func(r *Reader) { r.Uint() }, "truncated"},
		{"cut varint", []byte{0x80}, func(r *Reader) { r.Uint() }, "truncated"},
		{"overlong varint", append(make([]byte, 0, 11), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), func(r *Reader) { r.Uint() }, "overlong"},
		{"index at bound", Int(nil, 8), func(r *Reader) { r.Index(8) }, "outside [0,8)"},
		{"value past max", Int(nil, 9), func(r *Reader) { r.Int(8) }, "outside [0,8]"},
		{"negative written", Int(nil, -1), func(r *Reader) { r.Int(math.MaxInt) }, "outside"},
		{"count past input", Int(nil, 5), func(r *Reader) { r.Count() }, "count 5 with 0 byte(s) left"},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }, "bad bool"},
		{"caller", Int(nil, 1), func(r *Reader) { r.Failf("no %s", "good") }, "no good"},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Fatalf("%s: err %v, want %q", tc.name, r.Err(), tc.want)
		}
		first := r.Err()
		if r.Uint() != 0 || r.Index(4) != 0 || r.Int(4) != 0 || r.Count() != 0 || r.Bool() || r.Len() != 0 {
			t.Fatalf("%s: a failed reader returned a value", tc.name)
		}
		r.Failf("later")
		if r.Err() != first {
			t.Fatalf("%s: the first violation was replaced by %v", tc.name, r.Err())
		}
	}
}
