package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
)

// oracleScript reaches every kind of state a snapshot carries: open-loop
// GB (Bernoulli) and GL (periodic) sources, closed-loop users of both
// classes, inputs with two flows toward two outputs (the GB queue
// rotation), two of them closed-loop users in long bursts, so that both
// source queues are backlogged across a snapshot (the admission
// rotation), leases that expire, a resize (the generator keeps its first
// rate), a budget shrink under each policy, the policy flip that revokes,
// and — with oracleConfig's faults — an input fail-stop. Every command is
// accepted: a rejection is counted by the live plane and journaled
// nowhere, so only a script without one leaves live run, replay and
// restore equal in every counter.
const oracleScript = `
@50   add gl 1 0 rate=0.04 len=8 latency=400 burst=2 users=4
@50   add gl 1 4 rate=0.04 len=8 latency=400 burst=2 users=4
@100  add gb 0 1 rate=0.3 len=8 load=0.5
@100  add gb 2 1 rate=0.2 len=8 lease=4000
@200  add gl 3 1 rate=0.04 len=4 latency=400 burst=2
@300  add gb 4 2 rate=0.4 len=8 users=4
@350  add gl 5 2 rate=0.04 len=4 latency=400 burst=2 users=2
@400  add gb 5 3 rate=0.3 len=8
@500  add gb 6 3 rate=0.3 len=8 load=0.6
@600  add gb 6 1 rate=0.2 len=8 load=0.4
@2000 resize 4 rate=0.1 lease=6000
@3000 add gb 7 3 rate=0.2 len=4 lease=3000
@3500 resize 3 rate=0.25
@5000 budget 3 share=0.4
@6500 add gb 7 2 rate=0.2 len=8 lease=2000
@8200 budget 1 share=0.3
@9000 policy reject
@9400 add gb 6 2 rate=0.3 len=8
@9700 budget 2 share=0.2
@10300 remove 3
`

const oracleTotal = noc.Cycle(12000)

// oracleConfig is the oracle script's plane. With faults it runs a live
// schedule whose every fault is in force across a snapshot (every 1000
// cycles): CRC corruption whose retries back off for 300 cycles and more,
// so held heads cross snapshots; stall windows over the snapshots at 3000
// and 6000; and an input fail-stop from 7000 on.
func oracleConfig(withFaults bool) SimConfig {
	cfg := SimConfig{Radix: 8, Seed: 5, SnapEvery: 1000, Degrade: true}
	if withFaults {
		cfg.Faults = &faults.Config{
			Seed: 9, CorruptProb: 0.02, BackoffBase: 300, BackoffCap: 700,
			Stalls:    []faults.StallWindow{{Port: 1, From: 2600, Until: 3400}, {Port: 3, From: 5900, Until: 6050}},
			FailStops: []faults.FailStop{{Input: true, Port: 4, At: 7000}},
		}
	}
	return cfg
}

// oracleJournal runs the oracle script under cfg to a clean stop and
// returns the finished plane and its journal's records.
func oracleJournal(t *testing.T, cfg SimConfig) (*Plane, []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachJournal(jr, true); err != nil {
		t.Fatal(err)
	}
	sched, err := ParseScript(oracleScript)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sched {
		if err := p.AdvanceTo(s.At); err != nil {
			t.Fatal(err)
		}
		if r := p.Apply(s.Cmd); !r.OK {
			t.Fatalf("@%d %s: %s (the oracle script must be accepted whole)", s.At.Uint(), s.Cmd.Op, r)
		}
	}
	if err := p.AdvanceTo(oracleTotal); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	recs, _, warn, err := ReadJournal(path)
	if err != nil || warn != "" {
		t.Fatalf("read the journal back: %v %q", err, warn)
	}
	return p, recs
}

// stateOf encodes the plane's state as a checkpoint would.
func stateOf(t *testing.T, p *Plane) []byte {
	t.Helper()
	b, err := p.appendState(nil, p.tab.State().Reservations)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayChecking re-executes recs on p as recovery does and, at every
// snapshot among them, requires the plane to encode to the blob the live
// plane journaled there.
func replayChecking(t *testing.T, what string, p *Plane, recs []Record, first int) {
	t.Helper()
	for i := range recs {
		if err := p.replay(recs[i:i+1], first+i); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if s := recs[i].Snap; s != nil && !bytes.Equal(stateOf(t, p), s.State) {
			t.Fatalf("%s: at the snapshot of cycle %d the plane encodes to other bytes than the live plane journaled", what, s.Cycle.Uint())
		}
	}
}

// samePlaneFully is samePlane plus what only a restore can get wrong: the
// plane's own counters and the fault totals.
func samePlaneFully(t *testing.T, what string, a, b *Plane) {
	t.Helper()
	samePlane(t, what, a, b)
	if a.Stats() != b.Stats() || a.FaultTotals() != b.FaultTotals() || a.Now() != b.Now() {
		t.Fatalf("%s: stats %+v %+v at cycle %d, want %+v %+v at cycle %d",
			what, a.Stats(), a.FaultTotals(), a.Now().Uint(), b.Stats(), b.FaultTotals(), b.Now().Uint())
	}
}

// TestRestoreEqualsReplay is the oracle of recovery from a snapshot. For
// the oracle script, with and without the fail-stop: at every snapshot of
// the journal, the plane restored from it and run to the end over the
// records behind it equals the plane Rebuild re-executes from the header
// — trace hash, deliveries, switch counters, admission table, PlaneStats
// — and encodes to the journaled state blob at every later snapshot. Drop
// one field from any layer's encoder and it fails.
func TestRestoreEqualsReplay(t *testing.T) {
	for _, withFaults := range []bool{true, false} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			live, recs := oracleJournal(t, oracleConfig(withFaults))
			if st := live.Stats(); st.Expired == 0 || st.Revoked == 0 || st.RejectedBudget+st.RejectedBound+st.RejectedOther != 0 {
				t.Fatalf("oracle script lost coverage: %+v", st)
			}
			genesis, err := Rebuild(recs, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			samePlaneFully(t, "genesis replay vs live", genesis, live)
			cfg, err := headerConfig(recs[0])
			if err != nil {
				t.Fatal(err)
			}
			snaps := 0
			for k, rec := range recs {
				if rec.Snap == nil {
					continue
				}
				if len(rec.Snap.State) == 0 {
					t.Fatalf("record %d (%s at cycle %d) carries no state", k, rec.Kind, rec.Snap.Cycle.Uint())
				}
				snaps++
				what := fmt.Sprintf("restored from record %d (cycle %d)", k, rec.Snap.Cycle.Uint())
				p, err := restore(cfg, rec.Snap)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				replayChecking(t, what, p, recs[k+1:], k+1)
				samePlaneFully(t, what, p, live)
			}
			if want := int(oracleTotal/1000) + 1; snaps != want {
				t.Fatalf("%d snapshots in the journal, want %d", snaps, want)
			}
			// Forty retries of at least 300 cycles over 12000 leave some
			// head in backoff across a snapshot.
			if tot := live.sw.FaultTotals(); withFaults && (tot.Retransmissions < 40 || tot.StallCycles != 950) {
				t.Fatalf("the live schedule did not bite: %+v", tot)
			}
		})
	}
}

// churnSchedule is a command every 700 cycles for as long as asked: short
// leased adds walking the ports, so the table, the flow slots and the
// journal all keep moving and no (src,dst) recurs before its lease ran out.
func churnSchedule(total noc.Cycle) []Scheduled {
	var sched []Scheduled
	for i := 1; noc.CycleOf(uint64(700*i)) < total; i++ {
		cmd, err := ParseCommand(fmt.Sprintf("add gb %d %d rate=0.05 len=4 lease=2100", i%8, (i+1)%8))
		if err != nil {
			panic(err)
		}
		cmd.Tag = fmt.Sprintf("C%d", i)
		sched = append(sched, Scheduled{At: noc.CycleOf(uint64(700 * i)), Cmd: cmd})
	}
	return sched
}

// killedChurn journals a churn run of the given length and abandons it
// without an end record.
func killedChurn(t *testing.T, path string, total noc.Cycle) *Plane {
	t.Helper()
	jr, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(testConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachJournal(jr, true); err != nil {
		t.Fatal(err)
	}
	runScripted(t, p, churnSchedule(total), nil, total)
	if err := p.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRecoveryBoundedByCadence kills journals of 1x, 4x and 16x length
// between two snapshots: recovery re-executes the cycles behind the last
// snapshot, at most one cadence of them, whatever the journal's length,
// and lands where the killed plane's last record left it.
func TestRecoveryBoundedByCadence(t *testing.T) {
	every := testConfig(false).SnapEvery
	for _, scale := range []uint64{1, 4, 16} {
		total := noc.CycleOf(scale*6000 + 1500) // 700 cycles behind the last command, 1500 behind the last snapshot
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		killed := killedChurn(t, path, total)
		p, warn, err := RecoverFile(path, ReplayOptions{})
		if err != nil || warn != "" {
			t.Fatalf("%dx: %v %q", scale, err, warn)
		}
		rec := p.Recovered()
		if rec.Snapshot != total-1500 || rec.Reexecuted == 0 || rec.Reexecuted > every || rec.Snapshot+rec.Reexecuted != p.Now() {
			t.Fatalf("%dx: recovered %+v at cycle %d, want the snapshot at cycle %d and at most %d cycles behind it",
				scale, rec, p.Now().Uint(), (total - 1500).Uint(), every.Uint())
		}
		if err := p.AdvanceTo(total); err != nil {
			t.Fatal(err)
		}
		samePlaneFully(t, fmt.Sprintf("%dx", scale), p, killed)
		p.CloseJournal()
	}
}

// rewriteRecord replaces journal line k (0 = header) with the record edit
// leaves behind, CRC recomputed: damage no checksum catches.
func rewriteRecord(t *testing.T, path string, k int, edit func(*Record)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	rec, err := decodeRecord(bytes.TrimSuffix(lines[k], []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	edit(&rec)
	raw, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[k] = []byte(fmt.Sprintf("{\"crc\":%d,\"rec\":%s}\n", crc32.ChecksumIEEE(raw), raw))
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshotLines lists the journal lines that are snapshots with a state.
func snapshotLines(t *testing.T, path string) (lines []int, recs []Record) {
	t.Helper()
	recs, _, _, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for k, rec := range recs {
		if rec.Snap != nil && len(rec.Snap.State) > 0 {
			lines = append(lines, k)
		}
	}
	return lines, recs
}

// TestCorruptStateFallsBack damages the newest snapshot's state blob with
// the record's CRC recomputed each time, which no checksum catches: bits
// flipped all over it, cuts, a byte behind it. Recovery never panics and
// never fails. Damage that leaves no consistent plane — nearly all of it —
// is refused: recovery falls back to the snapshot before, says so, and
// reaches exactly the state of the undamaged journal. (A flipped bit can
// also spell another consistent state, an RNG word one off: that is what
// trusting a CRC-valid snapshot means, and such a plane must still run.)
// With every snapshot damaged recovery re-executes from the header; with a
// snapshot's verified fields moved, nothing can vouch for the journal and
// it is refused whole.
func TestCorruptStateFallsBack(t *testing.T) {
	const total = noc.Cycle(11000) // commands at 8000, 9000 and 9500 lie between the last snapshots
	ref, refPath := journaledRun(t, t.TempDir(), total, false)
	lines, recs := snapshotLines(t, refPath)
	if len(lines) < 3 {
		t.Fatalf("%d state-carrying snapshots, want at least 3", len(lines))
	}
	pristine, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	newest, before := lines[len(lines)-1], lines[len(lines)-2]
	blob := recs[newest].Snap.State
	path := filepath.Join(t.TempDir(), "damaged.jsonl")
	// try recovers the damaged journal and reports whether the newest
	// snapshot was refused; a plane that fell back must equal ref.
	try := func(what string, damage func()) (refused bool) {
		t.Helper()
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		damage()
		p, warn, err := RecoverFile(path, ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer p.CloseJournal()
		from := p.Recovered().Snapshot
		if err := p.AdvanceTo(total); err != nil {
			t.Fatalf("%s: the recovered plane does not run: %v", what, err)
		}
		if from == recs[newest].Snap.Cycle && warn == "" {
			return false
		}
		if !strings.Contains(warn, fmt.Sprintf("snapshot at cycle %d not used", recs[newest].Snap.Cycle.Uint())) {
			t.Fatalf("%s: recovered from cycle %d with warning %q, which does not name the damage", what, from.Uint(), warn)
		}
		if from == 0 {
			samePlane(t, what, p, ref) // from the header: rejections are not journaled, so not counted
		} else {
			samePlaneFully(t, what, p, ref)
		}
		return true
	}
	mustRefuse := func(what string, wantFrom noc.Cycle, damage func()) {
		t.Helper()
		if !try(what, damage) {
			t.Fatalf("%s: recovery restored the damaged snapshot", what)
		}
	}
	stride := 13
	if testing.Short() {
		stride = 211
	}
	flips, refused := 0, 0
	for bit := 0; bit < 8*len(blob); bit += stride {
		flips++
		if try(fmt.Sprintf("bit %d flipped", bit), func() {
			rewriteRecord(t, path, newest, func(rec *Record) { rec.Snap.State[bit/8] ^= 1 << (bit % 8) })
		}) {
			refused++
		}
	}
	t.Logf("%d of %d flipped bits refused; the rest spell another consistent state", refused, flips)
	if refused*2 < flips {
		t.Fatalf("only %d of %d flipped bits were refused", refused, flips)
	}
	mustRefuse("version byte moved", recs[before].Snap.Cycle, func() {
		rewriteRecord(t, path, newest, func(rec *Record) { rec.Snap.State[0]++ })
	})
	for _, n := range []int{1, len(blob) / 2, len(blob) - 1} {
		mustRefuse(fmt.Sprintf("cut to %d bytes", n), recs[before].Snap.Cycle, func() {
			rewriteRecord(t, path, newest, func(rec *Record) { rec.Snap.State = rec.Snap.State[:n] })
		})
	}
	mustRefuse("a byte behind the state", recs[before].Snap.Cycle, func() {
		rewriteRecord(t, path, newest, func(rec *Record) { rec.Snap.State = append(rec.Snap.State, 0) })
	})
	mustRefuse("every snapshot cut", 0, func() {
		for _, k := range lines {
			rewriteRecord(t, path, k, func(rec *Record) { rec.Snap.State = rec.Snap.State[:len(rec.Snap.State)/2] })
		}
	})

	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteRecord(t, path, newest, func(rec *Record) { rec.Snap.TraceHash++ })
	if _, _, err := RecoverFile(path, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "trace hash") {
		t.Fatalf("a snapshot whose trace hash no re-execution reaches recovered: %v", err)
	}
}

// TestOldStateVersionFallsBack: a journal whose snapshots carry version-1
// state blobs (closed-loop flows polled, no watermark) is one this build
// cannot restore. Every snapshot is refused by its version, by name, and
// recovery re-executes from the header to the trace of the run that
// wrote the journal.
func TestOldStateVersionFallsBack(t *testing.T) {
	ref, path := journaledRun(t, t.TempDir(), testTotal, true)
	lines, recs := snapshotLines(t, path)
	if len(lines) == 0 {
		t.Fatal("no state-carrying snapshot in the journal")
	}
	for _, k := range lines {
		if v := recs[k].Snap.State[0]; v != stateVersion {
			t.Fatalf("a fresh blob starts with version %d, want %d", v, stateVersion)
		}
		rewriteRecord(t, path, k, func(rec *Record) { rec.Snap.State[0] = 1 })
	}
	p, warn, err := RecoverFile(path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseJournal()
	if want := fmt.Sprintf("state blob version 1, this build reads %d", stateVersion); strings.Count(warn, want) != len(lines) {
		t.Fatalf("recovery warned %q: want each of %d snapshots refused by its version", warn, len(lines))
	}
	if rec := p.Recovered(); rec.Snapshot != 0 || rec.Reexecuted != testTotal {
		t.Fatalf("recovered %+v, want every cycle re-executed from the header", rec)
	}
	samePlane(t, "version-1 journal", p, ref) // rejections are not journaled, so not counted
}

// TestStatelessJournalRecoversFromGenesis strips the state from every
// snapshot, which is what a journal written before snapshots carried one
// looks like: recovery re-executes from the header, silently, as it
// always did.
func TestStatelessJournalRecoversFromGenesis(t *testing.T) {
	ref, path := journaledRun(t, t.TempDir(), testTotal, true)
	lines, _ := snapshotLines(t, path)
	for _, k := range lines {
		rewriteRecord(t, path, k, func(rec *Record) { rec.Snap.State = nil })
	}
	p, warn, err := RecoverFile(path, ReplayOptions{})
	if err != nil || warn != "" {
		t.Fatalf("recover: %v %q", err, warn)
	}
	defer p.CloseJournal()
	if rec := p.Recovered(); rec.Snapshot != 0 || rec.Reexecuted != testTotal {
		t.Fatalf("recovered %+v, want every cycle re-executed from the header", rec)
	}
	samePlane(t, "stateless journal", p, ref) // rejections are not journaled, so not counted
}

// TestAppendBytesPinned pins what Append puts on disk to what marshalling
// the record and then the frame around it produces, for every record
// kind: the hand-written envelope must not move a byte.
func TestAppendBytesPinned(t *testing.T) {
	_, path := journaledRun(t, t.TempDir(), testTotal, true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	var want []byte
	for i := range recs {
		kinds[recs[i].Kind]++
		raw, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(frame{CRC: crc32.ChecksumIEEE(raw), Rec: raw})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	for _, kind := range []string{KindHeader, KindCmd, KindSnap, KindEnd} {
		if kinds[kind] == 0 {
			t.Fatalf("no %s record in the journal", kind)
		}
	}
	if !bytes.Equal(data, want) {
		t.Fatal("Append's bytes differ from json.Marshal of the frame around json.Marshal of the record")
	}
}

// fuzzSnapshot is the record FuzzRestoreState restores into: a snapshot
// of the oracle run with every kind of state in it.
func fuzzSnapshot(t testing.TB) (SimConfig, *SnapRecord) {
	p, err := New(oracleConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ParseScript(oracleScript)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sched {
		if s.At > 7500 {
			break
		}
		p.AdvanceTo(s.At)
		p.Apply(s.Cmd)
	}
	if err := p.AdvanceTo(7500); err != nil {
		t.Fatal(err)
	}
	return p.Config(), p.snapRecord()
}

// FuzzRestoreState feeds arbitrary bytes to restore as a snapshot's state:
// it returns an error, or a plane that encodes to exactly those bytes. It
// never panics, and (the seed corpus is a true state and cuts of it) it
// does accept the real thing.
func FuzzRestoreState(f *testing.F) {
	cfg, snap := fuzzSnapshot(f)
	f.Add(snap.State)
	for _, n := range []int{0, 1, 16, len(snap.State) / 3, len(snap.State) - 1} {
		f.Add(snap.State[:n])
	}
	if _, err := restore(cfg, snap); err != nil {
		f.Fatalf("the true state does not restore: %v", err)
	}
	f.Fuzz(func(t *testing.T, state []byte) {
		s := *snap
		s.State = state
		p, err := restore(cfg, &s)
		if err != nil {
			return
		}
		if !bytes.Equal(stateOf(t, p), state) {
			t.Fatal("restore accepted a state the plane does not encode back to")
		}
	})
}
