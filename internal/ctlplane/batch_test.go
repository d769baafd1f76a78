package ctlplane

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"swizzleqos/internal/noc"
)

// batchSetup installs loaded reservations on outputs 1 and 2 before the
// batch under test, so every re-derivation the batch triggers runs over
// arbiters that have already earned auxVC.
var batchSetup = []string{
	"add gb 4 1 rate=0.2 len=8 load=0.4",
	"add gb 5 2 rate=0.3 len=8 load=0.5",
	"add gb 6 2 rate=0.3 len=8",
}

const (
	batchAt    = noc.Cycle(1000)  // cycle the batch applies at
	batchAfter = noc.Cycle(50000) // cycles simulated behind it
)

func mustParse(t *testing.T, lines []string) []Command {
	t.Helper()
	cmds := make([]Command, len(lines))
	for i, line := range lines {
		cmd, err := ParseCommand(line)
		if err != nil {
			t.Fatal(err)
		}
		cmds[i] = cmd
	}
	return cmds
}

// journaledPlane builds a journaled plane with the setup reservations
// installed, advanced to batchAt.
func journaledPlane(t *testing.T, path string) *Plane {
	t.Helper()
	jr, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(SimConfig{Radix: 8, Seed: 7, SnapEvery: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachJournal(jr, true); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range mustParse(t, batchSetup) {
		if r := p.Apply(cmd); !r.OK {
			t.Fatalf("setup refused: %s", r)
		}
	}
	if err := p.Advance(batchAt); err != nil {
		t.Fatal(err)
	}
	return p
}

// samePlane fails unless two planes agree on what a run leaves behind
// and a journal can restore: admission table, switch counters,
// deliveries and the delivery-trace digest.
func samePlane(t *testing.T, what string, a, b *Plane) {
	t.Helper()
	if !tableStateEqual(a.Table().State(), b.Table().State()) {
		t.Fatalf("%s: admission tables differ:\n%+v\n%+v", what, a.Table().State(), b.Table().State())
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("%s: switch counters differ:\n%+v\n%+v", what, a.Counters(), b.Counters())
	}
	if a.TraceHash() != b.TraceHash() || a.Delivered() != b.Delivered() {
		t.Fatalf("%s: traces differ: hash %016x vs %016x, delivered %d vs %d",
			what, a.TraceHash(), b.TraceHash(), a.Delivered(), b.Delivered())
	}
}

// TestBatchEqualsSingles applies each batch once through ApplyAll and
// once as one Apply per command at the same cycle. The journal files
// must be byte-identical, the planes equal 50 000 cycles later, and a
// Rebuild of either journal equal to both. The setup leaves ids 1-3
// taken, so the first add of a batch is reservation 4.
func TestBatchEqualsSingles(t *testing.T) {
	cases := []struct {
		name   string
		batch  []string
		wantOK []bool
	}{
		{"add,add on one output",
			[]string{"add gb 0 1 rate=0.3 len=8 load=0.5", "add gb 2 1 rate=0.25 len=8"},
			[]bool{true, true}},
		{"add,remove of the id just issued",
			[]string{"add gb 0 1 rate=0.3 len=8 load=0.5", "remove 4"},
			[]bool{true, true}},
		{"add,resize,remove",
			[]string{"add gb 0 1 rate=0.3 len=8", "resize 4 rate=0.2 lease=5000", "remove 4"},
			[]bool{true, true, true}},
		{"over-budget add in the middle",
			[]string{"add gb 0 1 rate=0.4 len=8", "add gb 2 1 rate=0.6 len=8", "add gb 3 1 rate=0.2 len=8 users=3"},
			[]bool{true, false, true}},
		{"budget shrink that revokes",
			[]string{"add gb 0 2 rate=0.2 len=8", "budget 2 share=0.4", "add gb 1 2 rate=0.05 len=4"},
			[]bool{true, true, true}},
		{"rejections only",
			[]string{"remove 99", "add gb 0 1 rate=0.9 len=8", "resize 77 rate=0.1"},
			[]bool{false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmds := mustParse(t, tc.batch)
			pathB, pathS := filepath.Join(dir, "batch.jsonl"), filepath.Join(dir, "singles.jsonl")

			pb := journaledPlane(t, pathB)
			recs0, syncs0 := pb.JournalCounts()
			got := pb.ApplyAll(cmds, nil)
			recs1, syncs1 := pb.JournalCounts()

			ps := journaledPlane(t, pathS)
			var want []Result
			for _, cmd := range cmds {
				want = append(want, ps.Apply(cmd))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results differ:\nbatch   %v\nsingles %v", got, want)
			}
			accepted := uint64(0)
			for i, r := range got {
				if r.OK != tc.wantOK[i] {
					t.Fatalf("command %d (%s): %s", i, tc.batch[i], r)
				}
				if r.OK {
					accepted++
				}
			}
			wantSyncs := uint64(0)
			if accepted > 0 {
				wantSyncs = 1
			}
			if recs1-recs0 != accepted || syncs1-syncs0 != wantSyncs {
				t.Fatalf("batch of %d accepted cost %d records and %d syncs, want %d and %d",
					accepted, recs1-recs0, syncs1-syncs0, accepted, wantSyncs)
			}

			for _, p := range []*Plane{pb, ps} {
				if err := p.Advance(batchAfter); err != nil {
					t.Fatal(err)
				}
				if err := p.Finish(); err != nil {
					t.Fatal(err)
				}
				if err := p.CloseJournal(); err != nil {
					t.Fatal(err)
				}
			}
			samePlane(t, "batch vs singles", pb, ps)
			if pb.Stats() != ps.Stats() {
				t.Fatalf("outcome counters differ: %+v vs %+v", pb.Stats(), ps.Stats())
			}
			dataB, err := os.ReadFile(pathB)
			if err != nil {
				t.Fatal(err)
			}
			dataS, err := os.ReadFile(pathS)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dataB, dataS) {
				t.Fatalf("journal files differ (%d vs %d bytes)", len(dataB), len(dataS))
			}
			recs, _, warn, err := DecodeJournal(dataB)
			if err != nil || warn != "" {
				t.Fatalf("decode: err=%v warn=%q", err, warn)
			}
			rb, err := Rebuild(recs, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Rejections are never journaled, so a rebuilt plane has
			// counted none; everything else must match.
			st := pb.Stats()
			st.RejectedBudget, st.RejectedBound, st.RejectedOther = 0, 0, 0
			if rb.Stats() != st {
				t.Fatalf("rebuilt outcome counters %+v, live %+v", rb.Stats(), st)
			}
			samePlane(t, "rebuild vs live", rb, pb)
		})
	}
}

// TestTornBatchTailRecovery ends a journal in a three-record batch and
// cuts it at every byte offset of that tail. Each cut must recover to a
// prefix of the batch — the state k single Apply calls reach — resume
// with the rest of the batch, and recover again to the uninterrupted
// run's final state.
func TestTornBatchTailRecovery(t *testing.T) {
	batch := mustParse(t, []string{
		"add gb 0 1 rate=0.3 len=8 load=0.5",
		"resize 2 rate=0.2 lease=4000",
		"add gb 2 3 rate=0.25 len=8 users=2",
	})
	const after = noc.Cycle(1500)
	dir := t.TempDir()

	// prefix[k] is the admission state behind the first k commands.
	var prefix []TableState
	ref := journaledPlane(t, filepath.Join(dir, "ref.jsonl"))
	prefix = append(prefix, ref.Table().State())
	for _, cmd := range batch {
		if r := ref.Apply(cmd); !r.OK {
			t.Fatalf("reference refused: %s", r)
		}
		prefix = append(prefix, ref.Table().State())
	}
	if err := ref.Advance(after); err != nil {
		t.Fatal(err)
	}
	if err := ref.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "batch.jsonl")
	p := journaledPlane(t, path)
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.ApplyAll(batch, nil) {
		if !r.OK {
			t.Fatalf("batch refused: %s", r)
		}
	}
	if err := p.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(data[len(head):], []byte{'\n'}) != len(batch) {
		t.Fatalf("tail holds %d records, want the %d of the batch", bytes.Count(data[len(head):], []byte{'\n'}), len(batch))
	}

	torn := filepath.Join(dir, "torn.jsonl")
	seen := map[int]bool{}
	for off := len(head); off <= len(data); off++ {
		if err := os.WriteFile(torn, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		q, _, err := RecoverFile(torn, ReplayOptions{})
		if err != nil {
			t.Fatalf("offset %d: recovery error: %v", off, err)
		}
		k := int(q.seqNo) - len(batchSetup)
		if k < 0 || k > len(batch) || !tableStateEqual(q.Table().State(), prefix[k]) {
			t.Fatalf("offset %d: recovered %d commands of the batch, not to a prefix of it", off, k)
		}
		seen[k] = true
		// Recovery stops at the last record it holds, which for k = 0 is
		// a setup command's.
		if err := q.AdvanceTo(batchAt); err != nil {
			t.Fatal(err)
		}
		for _, r := range q.ApplyAll(batch[k:], nil) {
			if !r.OK {
				t.Fatalf("offset %d: resumed batch refused: %s", off, r)
			}
		}
		if err := q.Advance(after); err != nil {
			t.Fatal(err)
		}
		if err := q.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		again, warn, err := RecoverFile(torn, ReplayOptions{})
		if err != nil || warn != "" {
			t.Fatalf("offset %d: second recovery: err=%v warn=%q", off, err, warn)
		}
		// Recovery stops at the last record; the live planes ran on.
		if err := again.AdvanceTo(ref.Now()); err != nil {
			t.Fatal(err)
		}
		samePlane(t, "twice-recovered vs uninterrupted", again, ref)
		if err := again.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k <= len(batch); k++ {
		if !seen[k] {
			t.Fatalf("no cut recovered exactly %d commands of the batch", k)
		}
	}
}

// faultFile is a journal file that fails on demand: once armed, Sync
// returns an error after the writes went through, or Write takes half of
// what it is given.
type faultFile struct {
	f         *os.File
	failSync  bool
	shortCopy bool
}

var errInjected = errors.New("injected journal fault")

func (ff *faultFile) Write(b []byte) (int, error) {
	if ff.shortCopy {
		return ff.f.Write(b[:len(b)/2])
	}
	return ff.f.Write(b)
}

func (ff *faultFile) Sync() error {
	if ff.failSync {
		return errInjected
	}
	return ff.f.Sync()
}

// TestJournalFaultUnderBatch fails the journal under a batch: no
// command of it may be acknowledged, the plane freezes, the journal stays
// failed after the fault clears, and whatever reached the disk still
// recovers to a prefix of the batch. The long batch outgrows the write
// buffer, so its short write fails an Append mid-batch, not the Sync.
func TestJournalFaultUnderBatch(t *testing.T) {
	three := []string{
		"add gb 0 1 rate=0.3 len=8 load=0.5",
		"add gb 2 1 rate=0.6 len=8", // refused by admission: keeps its own reason
		"add gb 2 3 rate=0.25 len=8",
		"remove 1",
	}
	var long []string
	for id := len(batchSetup) + 1; len(long) < 60; id++ {
		long = append(long, "add gb 0 3 rate=0.1 len=8", fmt.Sprintf("remove %d", id))
	}
	for _, tc := range []struct {
		name     string
		batch    []string
		arm      faultFile
		accepted int
		midBatch bool // an Append fails, not the Sync
	}{
		{"sync fails", three, faultFile{failSync: true}, 3, false},
		{"short write at the sync", three, faultFile{shortCopy: true}, 3, false},
		{"short write at an append", long, faultFile{shortCopy: true}, len(long), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			ff := &faultFile{f: f}
			jr := newJournal(ff, f, path)
			p, err := New(SimConfig{Radix: 8, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.AttachJournal(jr, true); err != nil {
				t.Fatal(err)
			}
			for _, cmd := range mustParse(t, batchSetup) {
				if r := p.Apply(cmd); !r.OK {
					t.Fatalf("setup refused: %s", r)
				}
			}
			if err := p.Advance(batchAt); err != nil {
				t.Fatal(err)
			}
			ff.failSync, ff.shortCopy = tc.arm.failSync, tc.arm.shortCopy
			recs0, _ := p.JournalCounts()
			out := p.ApplyAll(mustParse(t, tc.batch), nil)
			recs1, _ := p.JournalCounts()
			if midBatch := int(recs1-recs0) < tc.accepted; midBatch != tc.midBatch {
				t.Fatalf("%d of %d appends went through", recs1-recs0, tc.accepted)
			}
			if len(out) != len(tc.batch) {
				t.Fatalf("%d results for %d commands", len(out), len(tc.batch))
			}
			for i, r := range out {
				want := ReasonJournal
				if tc.accepted < len(tc.batch) && i == 1 {
					want = ReasonGBBudget
				}
				if r.OK || r.Reason != want {
					t.Fatalf("command %d answered %q, want reason %s", i, r, want)
				}
			}
			if p.Err() == nil {
				t.Fatal("plane not frozen behind a failed journal write")
			}
			if r := p.Apply(Command{Op: OpRemove, ID: 2}); r.OK || r.Reason != ReasonFrozen {
				t.Fatalf("frozen plane answered %q", r)
			}
			ff.failSync, ff.shortCopy = false, false
			if jr.Append(&Record{Kind: KindSnap}) == nil || jr.Sync() == nil {
				t.Fatal("a journal that failed once took a record behind the lost ones")
			}
			if err := p.CloseJournal(); err == nil {
				t.Fatal("closing a failed journal reported success")
			}
			q, _, err := RecoverFile(path, ReplayOptions{})
			if err != nil {
				t.Fatalf("on-disk journal does not recover: %v", err)
			}
			if k := int(q.seqNo) - len(batchSetup); k < 0 || k > tc.accepted {
				t.Fatalf("recovered %d commands of a batch of %d accepted", k, tc.accepted)
			}
			if err := q.CloseJournal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
