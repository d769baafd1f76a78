// Package wire is the byte codec of full-state snapshots: every layer
// of the control plane's simulation (ctlplane, switchsim, fabric, core,
// arb, traffic, faults) appends its own state to one buffer with the
// functions here and restores it through a Reader. Values are unsigned
// varints; a bool is one byte, 0 or 1.
//
// The encoding is append-only into a caller-owned buffer, so taking a
// snapshot allocates nothing once the buffer has reached the state's
// size. The Reader is the restore side's trust boundary in miniature: it
// never panics and never reads past its input, every count and index is
// read against a bound the caller states, and the first violation sticks
// — later reads return zeros, and Err reports it — so a restore function
// reads straight through and checks once.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Uint appends v.
func Uint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// Int appends a non-negative v. A negative one (a bug in the caller)
// encodes as a value no bound on the reading side admits.
func Int(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

// Bool appends v.
func Bool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader decodes what Uint, Int and Bool appended.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads from b, which it does not copy.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Failf records a violation found by the caller; only the first one,
// from the reader or the caller, is kept.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.buf = nil
	}
}

// Err returns the first violation, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the bytes not yet read.
func (r *Reader) Len() int { return len(r.buf) }

// Uint reads one value.
func (r *Reader) Uint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Failf("wire: truncated or overlong varint with %d byte(s) left", len(r.buf))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Index reads a value in [0, n).
func (r *Reader) Index(n int) int {
	v := r.Uint()
	if r.err == nil && (n <= 0 || v >= uint64(n)) {
		r.Failf("wire: index %d outside [0,%d)", v, n)
		return 0
	}
	return int(v)
}

// Int reads a value in [0, max].
func (r *Reader) Int(max int) int {
	v := r.Uint()
	if r.err == nil && (max < 0 || v > uint64(max)) {
		r.Failf("wire: value %d outside [0,%d]", v, max)
		return 0
	}
	return int(v)
}

// Count reads the length of a sequence whose elements take at least one
// byte each: a value no larger than the bytes left, so a caller may
// allocate that many elements whatever the input says.
func (r *Reader) Count() int {
	v := r.Uint()
	if r.err == nil && v > uint64(len(r.buf)) {
		r.Failf("wire: count %d with %d byte(s) left", v, len(r.buf))
		return 0
	}
	return int(v)
}

// Bool reads one bool; any byte but 0 and 1 is a violation.
func (r *Reader) Bool() bool {
	if len(r.buf) == 0 || r.buf[0] > 1 {
		r.Failf("wire: bad bool with %d byte(s) left", len(r.buf))
		return false
	}
	v := r.buf[0] == 1
	r.buf = r.buf[1:]
	return v
}
