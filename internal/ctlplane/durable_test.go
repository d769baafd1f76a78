package ctlplane

import (
	"errors"
	"testing"
)

// memFile is a journal file in memory that logs what reached it: every
// byte written, and how many of them the last fsync covered. Armed, it
// fails its writes or its fsyncs.
type memFile struct {
	written             []byte
	synced              int // len(written) at the last successful fsync
	fsyncs              int
	failWrite, failSync bool
}

func (m *memFile) Write(b []byte) (int, error) {
	if m.failWrite {
		return 0, errInjected
	}
	m.written = append(m.written, b...)
	return len(b), nil
}

func (m *memFile) Sync() error {
	if m.failSync {
		return errInjected
	}
	m.synced = len(m.written)
	m.fsyncs++
	return nil
}

func (m *memFile) Close() error { return nil }

// TestAckOnlyBehindSync drives the real ApplyAll over a journal that logs
// its writes and fsyncs. Every result that comes back OK must have its
// command record written and fsynced by then, every accepted command of a
// healthy journal must come back OK, a batch of refusals only must issue
// no fsync, and a failed fsync must leave no OK and a frozen plane.
func TestAckOnlyBehindSync(t *testing.T) {
	mf := &memFile{}
	p, err := New(SimConfig{Radix: 8, Seed: 7, SnapEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachJournal(newJournal(mf, mf, ""), true); err != nil {
		t.Fatal(err)
	}
	var acked []Result // every OK so far, in order
	apply := func(lines ...string) []Result {
		t.Helper()
		out := p.ApplyAll(mustParse(t, lines), nil)
		for _, r := range out {
			if r.OK {
				acked = append(acked, r)
			}
		}
		return out
	}
	// checkDurable holds every OK so far to the fsynced prefix of the file:
	// the k-th command record there is the k-th acknowledged command.
	checkDurable := func(what string) {
		t.Helper()
		recs, _, _, err := DecodeJournal(mf.written[:mf.synced])
		if err != nil {
			t.Fatal(err)
		}
		var cmds []*CmdRecord
		for _, rec := range recs {
			if rec.Kind == KindCmd {
				cmds = append(cmds, rec.Cmd)
			}
		}
		if len(cmds) != len(acked) {
			t.Fatalf("%s: %d command records fsynced behind %d acknowledgements", what, len(cmds), len(acked))
		}
		for k, r := range acked {
			if cmds[k].Cycle != r.Cycle || cmds[k].ID != r.ID {
				t.Fatalf("%s: acknowledgement %d (%s) is not the fsynced record %+v", what, k, r, *cmds[k])
			}
		}
	}
	batches := [][]string{
		batchSetup,
		{
			"add gb 0 1 rate=0.3 len=8 load=0.5",
			"add gb 2 1 rate=0.6 len=8", // over output 1's GB budget
			"add gb 2 3 rate=0.25 len=8",
			"remove 99", // no such reservation
			"remove 1",
		},
		{"resize 2 rate=0.2", "add gl 3 4 rate=0.01 len=4", "add gb 5 6 rate=2 len=8"},
	}
	for i, batch := range batches {
		out := apply(batch...)
		ok := 0
		for _, r := range out {
			switch {
			case r.OK:
				ok++
			case r.Reason == ReasonJournal || r.Reason == ReasonFrozen:
				t.Fatalf("batch %d: a healthy journal answered %s", i, r)
			}
		}
		if ok == 0 || i > 0 && ok == len(out) {
			t.Fatalf("batch %d: %d of %d accepted; the batches mix accepted and refused commands", i, ok, len(out))
		}
		checkDurable("batch")
		if mf.synced != len(mf.written) {
			t.Fatalf("batch %d: %d bytes written behind the last fsync", i, len(mf.written)-mf.synced)
		}
		if err := p.Advance(300); err != nil {
			t.Fatal(err)
		}
	}

	fsyncs, size := mf.fsyncs, len(mf.written)
	for _, r := range apply("remove 99", "add gb 2 1 rate=0.9 len=8", "resize 77 rate=0.1") {
		if r.OK {
			t.Fatalf("refusal answered %s", r)
		}
	}
	if mf.fsyncs != fsyncs || len(mf.written) != size {
		t.Fatalf("a batch of refusals wrote %d bytes and issued %d fsyncs", len(mf.written)-size, mf.fsyncs-fsyncs)
	}

	mf.failSync = true
	for _, r := range apply("add gb 0 3 rate=0.1 len=8", "remove 99") {
		if r.OK {
			t.Fatalf("acknowledged behind a failed fsync: %s", r)
		}
	}
	if p.Err() == nil {
		t.Fatal("plane not frozen behind a failed fsync")
	}
	checkDurable("failed fsync")
}

// TestAcknowledgeNeedsDurableBatch calls the acknowledgement site for a
// batch of one with the journal in states ApplyAll never leaves it in: a
// record appended but not fsynced, and a synced journal holding one
// record more or one fewer than the batch turns OK. None may
// acknowledge; each freezes the plane.
func TestAcknowledgeNeedsDurableBatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		appends int
		sync    bool
	}{
		{"appended, not fsynced", 1, false},
		{"a record more than the batch", 2, true},
		{"no record behind the sync", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mf := &memFile{}
			p, err := New(SimConfig{Radix: 8, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.AttachJournal(newJournal(mf, mf, ""), true); err != nil {
				t.Fatal(err)
			}
			from := p.jr.records
			for range tc.appends {
				if err := p.jr.Append(&Record{Kind: KindCmd, Cmd: &CmdRecord{Seq: 1}}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.sync {
				if err := p.jr.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			p.pending = append(p.pending[:0], 0)
			out := p.acknowledge([]Result{{ID: 1}}, from, p.Now())
			if out[0].OK || out[0].Reason != ReasonJournal {
				t.Fatalf("acknowledged %s", out[0])
			}
			if p.Err() == nil {
				t.Fatal("plane not frozen")
			}
		})
	}
}

// TestJournalRefusesUnsyncedWindow pins both refusals: a checkpoint
// (snapshot or end record) behind unsynced command records, and a
// command record behind an unsynced checkpoint. Either fails the journal
// for good. A Sync between them, or records of one kind, pass.
func TestJournalRefusesUnsyncedWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kinds  []string // "sync" calls Sync
		refuse bool     // the last Append is refused
	}{
		{"snapshot behind a command", []string{KindCmd, KindSnap}, true},
		{"end behind commands", []string{KindCmd, KindCmd, KindEnd}, true},
		{"command behind a snapshot", []string{KindSnap, KindCmd}, true},
		{"command behind an end", []string{KindEnd, KindCmd}, true},
		{"a batch of commands", []string{KindCmd, KindCmd, KindCmd}, false},
		{"snapshot then end", []string{KindSnap, KindEnd}, false},
		{"snapshot after a synced command", []string{KindCmd, "sync", KindSnap}, false},
		{"command after a synced snapshot", []string{KindSnap, "sync", KindCmd}, false},
		{"command behind a header", []string{KindHeader, KindCmd}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mf := &memFile{}
			j := newJournal(mf, mf, "")
			var err error
			for _, k := range tc.kinds {
				if k == "sync" {
					err = j.Sync()
				} else {
					err = j.Append(&Record{Kind: k})
				}
				if err != nil {
					break
				}
			}
			if !tc.refuse {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, ErrUnsyncedWindow) {
				t.Fatalf("last append returned %v, want ErrUnsyncedWindow", err)
			}
			fsyncs := mf.fsyncs
			if j.Sync() == nil || j.Append(&Record{Kind: KindCmd}) == nil || mf.fsyncs != fsyncs {
				t.Fatal("the journal took a record or an fsync after refusing one")
			}
		})
	}
}

// FuzzJournalWindow drives a Journal through random sequences of
// appends of each kind, syncs and armed file faults, and holds it to a
// model of the unsynced window: an Append is refused exactly when it
// mixes commands with checkpoints inside one window, every Append and
// Sync fails after a refusal or a fault, and a Sync with nothing
// appended issues no fsync.
func FuzzJournalWindow(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 3, 0, 3})
	f.Add([]byte{0, 1, 3, 0})
	f.Add([]byte{1, 2, 0, 3})
	f.Add([]byte{3, 0, 5, 3, 0, 3})
	f.Add([]byte{0, 4, 3, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mf := &memFile{}
		j := newJournal(mf, mf, "")
		var cmds, checks, failed bool // the model
		for i, op := range ops {
			fsyncs := mf.fsyncs
			switch op % 6 {
			case 0, 1, 2:
				kind := [3]string{KindCmd, KindSnap, KindEnd}[op%6]
				cmd := kind == KindCmd
				refuse := cmd && checks || !cmd && cmds
				err := j.Append(&Record{Kind: kind, Cmd: &CmdRecord{Seq: uint64(i)}})
				switch {
				case failed:
					if err == nil {
						t.Fatalf("op %d: append to a failed journal succeeded", i)
					}
				case refuse != errors.Is(err, ErrUnsyncedWindow):
					t.Fatalf("op %d: %s append returned %v; unsynced cmds=%v checks=%v", i, kind, err, cmds, checks)
				case err != nil && !refuse && !mf.failWrite:
					t.Fatalf("op %d: append failed unarmed: %v", i, err)
				}
				failed = failed || err != nil
				cmds, checks = cmds || cmd, checks || !cmd
			case 3:
				err := j.Sync()
				switch {
				case failed:
					if err == nil || mf.fsyncs != fsyncs {
						t.Fatalf("op %d: sync of a failed journal returned %v after %d fsync(s)", i, err, mf.fsyncs-fsyncs)
					}
				case !cmds && !checks:
					if err != nil || mf.fsyncs != fsyncs {
						t.Fatalf("op %d: sync with nothing appended returned %v after %d fsync(s)", i, err, mf.fsyncs-fsyncs)
					}
				case err != nil && !mf.failWrite && !mf.failSync:
					t.Fatalf("op %d: sync failed unarmed: %v", i, err)
				case err == nil && mf.fsyncs != fsyncs+1:
					t.Fatalf("op %d: a successful sync issued %d fsyncs", i, mf.fsyncs-fsyncs)
				}
				failed = failed || err != nil
				cmds, checks = false, false
			case 4:
				mf.failWrite = true
			case 5:
				mf.failSync = true
			}
		}
	})
}
