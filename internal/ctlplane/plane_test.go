package ctlplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/traffic"
)

// testScript exercises every command type: leased and unleased GB adds,
// a GL add, a closed-loop source, rejections (over-budget, duplicate),
// resize, budget shrink, and a policy flip. The input fail-stop at
// cycle 7000 (testConfig) lands in the middle.
const testScript = `
@100  add gb 0 1 rate=0.3 len=8 load=0.5
@100  add gb 2 1 rate=0.3 len=8 lease=4000
@150  add gb 2 1 rate=0.1 len=8
@200  add gl 3 1 rate=0.04 len=4 latency=400 burst=2
@300  add gb 4 2 rate=0.4 len=8 users=4
@400  add gb 5 2 rate=0.9 len=8
@2000 resize 1 rate=0.2 lease=6000
@3000 add gb 6 3 rate=0.5 len=8 lease=3000
@8000 budget 1 share=0.25
@9000 policy reject
@9500 add gb 5 3 rate=0.2 len=8
`

const testTotal = noc.Cycle(12000)

func testConfig(withFaults bool) SimConfig {
	cfg := SimConfig{
		Radix:     8,
		Seed:      42,
		SnapEvery: 2000,
		Degrade:   true,
	}
	if withFaults {
		cfg.Faults = &faults.Config{Seed: 9, FailStops: []faults.FailStop{
			{Input: true, Port: 4, At: 7000}, // kills the closed-loop flow mid-run
		}}
	}
	return cfg
}

func testSchedule(t *testing.T) []Scheduled {
	t.Helper()
	sched, err := ParseScript(testScript)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// runScripted drives the plane exactly like the daemon's serve loop:
// scripted commands apply at their stamped cycles, entries already
// journaled before a crash (done) are skipped.
func runScripted(t *testing.T, p *Plane, sched []Scheduled, done map[string]bool, total noc.Cycle) {
	t.Helper()
	for {
		now := p.Now()
		for len(sched) > 0 && sched[0].At <= now {
			s := sched[0]
			sched = sched[1:]
			if done[s.Cmd.Tag] || s.At < now {
				continue
			}
			p.Apply(s.Cmd)
		}
		if now >= total {
			return
		}
		next := total
		if len(sched) > 0 && sched[0].At < next {
			next = sched[0].At
		}
		if err := p.Advance(noc.SatSub(next, now)); err != nil {
			t.Fatal(err)
		}
	}
}

// journaledRun executes the test scenario with a journal attached and
// returns the finished plane and the journal path.
func journaledRun(t *testing.T, dir string, total noc.Cycle, finish bool) (*Plane, string) {
	t.Helper()
	path := filepath.Join(dir, "journal.jsonl")
	jr, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachJournal(jr, true); err != nil {
		t.Fatal(err)
	}
	runScripted(t, p, testSchedule(t), nil, total)
	if finish {
		if err := p.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return p, path
}

// doneTags reads the script tags a journal already holds.
func doneTags(t *testing.T, path string) map[string]bool {
	t.Helper()
	recs, _, _, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]bool{}
	for _, rec := range recs {
		if rec.Kind == KindCmd && rec.Cmd != nil && rec.Cmd.Cmd.Tag != "" {
			done[rec.Cmd.Cmd.Tag] = true
		}
	}
	return done
}

func TestScenarioOutcomes(t *testing.T) {
	p, _ := journaledRun(t, t.TempDir(), testTotal, true)
	st := p.Stats()
	if st.Admitted == 0 || st.RejectedBudget == 0 || st.RejectedOther == 0 {
		t.Fatalf("scenario lost coverage: %+v", st)
	}
	if st.Expired == 0 {
		t.Fatalf("no lease expired: %+v", st)
	}
	if st.Revoked == 0 {
		t.Fatalf("the input fail-stop revoked nothing: %+v", st)
	}
	if p.Delivered() == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestReplayReproducesRun(t *testing.T) {
	p, path := journaledRun(t, t.TempDir(), testTotal, true)
	recs, _, warn, err := ReadJournal(path)
	if err != nil || warn != "" {
		t.Fatalf("clean journal read: err=%v warn=%q", err, warn)
	}
	q, err := Rebuild(recs, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q.TraceHash() != p.TraceHash() || q.Delivered() != p.Delivered() {
		t.Fatalf("replay diverged: hash %016x vs %016x, delivered %d vs %d",
			q.TraceHash(), p.TraceHash(), q.Delivered(), p.Delivered())
	}
	if q.Counters() != p.Counters() {
		t.Fatalf("replay counters diverged:\n%+v\n%+v", q.Counters(), p.Counters())
	}
	if !tableStateEqual(q.Table().State(), p.Table().State()) {
		t.Fatalf("replay admission state diverged")
	}
}

// TestKillRecoverContinue kills the run at many mid-run cycles (journal
// written but neither finished nor cleanly shut down), recovers from
// the journal, re-runs the remaining script, and requires the final
// state to be bit-for-bit the uninterrupted run's — leases, faults, and
// budget churn included.
func TestKillRecoverContinue(t *testing.T) {
	ref, _ := journaledRun(t, t.TempDir(), testTotal, true)
	for _, kill := range []noc.Cycle{0, 99, 2500, 5000, 6999, 7001, 9501, 11999} {
		dir := t.TempDir()
		_, path := journaledRun(t, dir, kill, false) // killed: no end record
		p, warn, err := RecoverFile(path, ReplayOptions{})
		if err != nil {
			t.Fatalf("kill@%d: %v", kill.Uint(), err)
		}
		if warn != "" {
			t.Fatalf("kill@%d: unexpected torn-tail warning %q", kill.Uint(), warn)
		}
		if p == nil {
			t.Fatalf("kill@%d: no plane recovered", kill.Uint())
		}
		if p.Now() > kill {
			t.Fatalf("kill@%d: recovered beyond the kill point, at %d", kill.Uint(), p.Now().Uint())
		}
		// Recovery starts at the last snapshot the killed run reached, not
		// at the header: the grid point at or below the kill.
		every := p.Config().SnapEvery
		if rec := p.Recovered(); rec.Snapshot != kill/every*every || rec.Snapshot+rec.Reexecuted != p.Now() {
			t.Fatalf("kill@%d: recovered %+v at cycle %d, want from the snapshot at cycle %d",
				kill.Uint(), rec, p.Now().Uint(), (kill / every * every).Uint())
		}
		runScripted(t, p, testSchedule(t), doneTags(t, path), testTotal)
		if err := p.Finish(); err != nil {
			t.Fatalf("kill@%d: %v", kill.Uint(), err)
		}
		if p.TraceHash() != ref.TraceHash() || p.Delivered() != ref.Delivered() {
			t.Fatalf("kill@%d: resumed run diverged: hash %016x vs %016x, delivered %d vs %d",
				kill.Uint(), p.TraceHash(), ref.TraceHash(), p.Delivered(), ref.Delivered())
		}
		if p.Counters() != ref.Counters() {
			t.Fatalf("kill@%d: counters diverged", kill.Uint())
		}
		if err := p.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornJournalRecovery truncates the journal at every byte offset:
// recovery must never panic and never silently diverge — it recovers
// exactly the longest valid record prefix (warning about the torn
// tail), and continuing the run from there still reproduces the
// uninterrupted final state. It starts from the newest snapshot that is
// whole: a tear inside the second snapshot's state blob falls back to the
// first, one before that to the header.
func TestTornJournalRecovery(t *testing.T) {
	const total = noc.Cycle(3200) // small run keeps len(journal) offsets tractable
	cfg := testConfig(true)
	cfg.SnapEvery = 1500 // two snapshots in the run
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	jr, err := CreateJournal(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AttachJournal(jr, true); err != nil {
		t.Fatal(err)
	}
	runScripted(t, ref, testSchedule(t), nil, total)
	if err := ref.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	// snapEnd[k] is the offset behind the k-th snapshot line's newline, and
	// inBlob marks the base64 of its state: one cut there is like the next,
	// so only every eighth is tried.
	var snapEnd []int
	inBlob := make([]bool, len(data)+1)
	for off := 0; off < len(data); {
		end := off + bytes.IndexByte(data[off:], '\n') + 1
		if bytes.Contains(data[off:end], []byte(`"kind":"snap"`)) {
			snapEnd = append(snapEnd, end)
			from := off + bytes.Index(data[off:end], []byte(`"state":"`)) + len(`"state":"`)
			for i := from; data[i] != '"'; i++ {
				inBlob[i] = true
			}
		}
		off = end
	}
	if len(snapEnd) != 2 {
		t.Fatalf("%d snapshots in the journal, want 2", len(snapEnd))
	}
	tornPath := filepath.Join(dir, "torn.jsonl")
	for off := 0; off <= len(data); off++ {
		if inBlob[off] && off%8 != 0 {
			continue
		}
		if err := os.WriteFile(tornPath, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		p, warn, err := RecoverFile(tornPath, ReplayOptions{})
		if err != nil {
			t.Fatalf("offset %d: recovery error: %v", off, err)
		}
		// Whole snapshots in the cut: the line is valid without its newline.
		whole := noc.Cycle(0)
		for _, end := range snapEnd {
			if off >= end-1 {
				whole++
			}
		}
		if p != nil && p.Recovered().Snapshot != whole*ref.Config().SnapEvery {
			t.Fatalf("offset %d: recovered from cycle %d with %d whole snapshot(s) in the journal",
				off, p.Recovered().Snapshot.Uint(), whole.Uint())
		}
		tornTail := off < len(data) && (off == 0 || data[off-1] != '\n')
		if tornTail && warn == "" && p != nil {
			// A cut that leaves a complete-but-unterminated record is
			// warned about too; only cuts at record boundaries are clean.
			t.Fatalf("offset %d: torn tail recovered without a warning", off)
		}
		if p == nil {
			continue // nothing recoverable (cut inside the header): fresh start
		}
		runScripted(t, p, testSchedule(t), doneTags(t, tornPath), total)
		if p.TraceHash() != ref.TraceHash() || p.Delivered() != ref.Delivered() {
			t.Fatalf("offset %d: recovered run diverged: hash %016x vs %016x",
				off, p.TraceHash(), ref.TraceHash())
		}
		if err := p.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		// The resumed journal must itself be cleanly recoverable: a
		// record that survived the cut with only its newline missing must
		// not merge with the first record appended after recovery.
		if _, _, warn, err := ReadJournal(tornPath); err != nil {
			t.Fatalf("offset %d: journal corrupt after resume: %v", off, err)
		} else if warn != "" {
			t.Fatalf("offset %d: journal still torn after resume: %s", off, warn)
		}
	}
}

// TestTornTailResumeThenRecoverAgain crashes twice: first a kill that
// strips only the final record's newline (the record itself survives),
// then — after recovery has resumed and journaled more commands — a
// second kill. The second recovery must replay every record, including
// the reattached tail record and everything appended after it, and the
// finished run must match the uninterrupted reference bit for bit.
func TestTornTailResumeThenRecoverAgain(t *testing.T) {
	ref, _ := journaledRun(t, t.TempDir(), testTotal, true)
	_, path := journaledRun(t, t.TempDir(), 2500, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("journal does not end with a newline")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	p, warn, err := RecoverFile(path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn, "missing trailing newline") {
		t.Fatalf("want a missing-newline warning, got %q", warn)
	}
	// Resume past cycle 3000 so at least one more command (and the
	// cycle-4000 snapshot) lands after the reattached record.
	runScripted(t, p, testSchedule(t), doneTags(t, path), 5000)
	if err := p.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	q, warn, err := RecoverFile(path, ReplayOptions{})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if warn != "" {
		t.Fatalf("second recovery warned: %q", warn)
	}
	runScripted(t, q, testSchedule(t), doneTags(t, path), testTotal)
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if q.TraceHash() != ref.TraceHash() || q.Delivered() != ref.Delivered() {
		t.Fatalf("twice-recovered run diverged: hash %016x vs %016x, delivered %d vs %d",
			q.TraceHash(), ref.TraceHash(), q.Delivered(), ref.Delivered())
	}
	if q.Counters() != ref.Counters() {
		t.Fatalf("twice-recovered counters diverged")
	}
	if err := q.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteInputsRejected feeds NaN and ±Inf — all reachable from
// the line protocol via strconv.ParseFloat — into every float-accepting
// admission path. Each must come back as a bad-request rejection; a NaN
// that reaches the fixed-point budget math would corrupt the budgets
// with an implementation-defined float-to-uint conversion.
func TestNonFiniteInputsRejected(t *testing.T) {
	tab, err := NewTable(TableConfig{
		Radix: 4, LMax: 8, GLBufferFlits: 16,
		GBShare: 0.8, GLShare: 0.1, Policy: PolicyDegrade,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		req := FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: v, PacketLen: 4}
		if _, rej := tab.Admit(req, 0, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("rate %v admitted (rej=%+v)", v, rej)
		}
		req = FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLen: 4, Load: v}
		if _, rej := tab.Admit(req, 0, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("load %v admitted (rej=%+v)", v, rej)
		}
		if _, rej := tab.SetBudget(1, v, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("budget share %v accepted (rej=%+v)", v, rej)
		}
		if _, err := NewTable(TableConfig{Radix: 4, LMax: 8, GLBufferFlits: 16, GBShare: v, GLShare: 0.1}); err == nil {
			t.Fatalf("GBShare %v config validated", v)
		}
	}
	res, rej := tab.Admit(FlowReq{Src: 2, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLen: 4}, 0, 0)
	if rej != nil {
		t.Fatalf("finite admit rejected: %+v", rej)
	}
	for _, v := range bad {
		if _, rej := tab.Resize(res.ID, v, 0, false, 0); rej == nil || rej.Reason != ReasonBadRequest {
			t.Fatalf("resize to %v accepted (rej=%+v)", v, rej)
		}
	}
	if res.Cost == 0 || res.GrantedCost != res.Cost {
		t.Fatalf("surviving reservation disturbed: %+v", res)
	}
}

// TestTinyRateAdmitsAlikeEverywhere: validate accepts any rate in
// (0,1], and a rate whose Vtick overflows 64 bits must price and program
// the same on every architecture, or one journal replays to two traces.
// The Vtick saturates, so the cost rounds up to one Frame unit and the
// granted Vtick is the whole Frame-scaled packet time.
func TestTinyRateAdmitsAlikeEverywhere(t *testing.T) {
	tab, err := NewTable(TableConfig{Radix: 4, LMax: 8, GLBufferFlits: 16, GBShare: 0.8, GLShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, rej := tab.Admit(FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 1e-300, PacketLen: 8}, 0, 0)
	if rej != nil {
		t.Fatalf("admit rejected: %+v", rej)
	}
	if res.Cost != 1 || res.GrantedVtick() != noc.VTimeOf(8*Frame) {
		t.Fatalf("cost %d, granted Vtick %d; want 1 and %d", res.Cost, res.GrantedVtick(), 8*Frame)
	}
}

// TestLMaxMustFitTheBuffers: admission takes packets up to LMax, and
// switchsim.AddFlow refuses a flow whose packets could never enter their
// class's buffer, which would fail the plane sick on a client's command.
// The configuration is refused instead.
func TestLMaxMustFitTheBuffers(t *testing.T) {
	if _, err := New(SimConfig{Radix: 4, LMax: 16}); err != nil {
		t.Fatalf("lmax equal to the 16-flit default buffers refused: %v", err)
	}
	for _, cfg := range []SimConfig{
		{Radix: 4, LMax: 17},
		{Radix: 4, LMax: 8, GBBufferFlits: 4},
		{Radix: 4, LMax: 8, GLBufferFlits: 7},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%+v accepted: its lmax-flit packets could never be admitted", cfg)
		}
	}
}

// TestCorruptMiddleRefused flips a byte well before the journal tail:
// that is corruption, not a torn write, and replay must refuse rather
// than silently drop history.
func TestCorruptMiddleRefused(t *testing.T) {
	_, path := journaledRun(t, t.TempDir(), testTotal, true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := bytes.IndexByte(data[len(data)/2:], '"') + len(data)/2
	data[mid] ^= 0x01
	if _, _, _, err := DecodeJournal(data); err == nil {
		t.Fatal("corrupted middle record decoded without error")
	} else if !strings.Contains(err.Error(), "refusing to replay a hole") {
		t.Fatalf("unexpected corruption error: %v", err)
	}
}

// TestRejectedCommandsDontDisturb interleaves a barrage of doomed
// commands (over-budget adds, bogus removes) into the scenario; the
// delivery trace and counters must be identical to the clean run.
func TestRejectedCommandsDontDisturb(t *testing.T) {
	run := func(noise bool) *Plane {
		p, err := New(testConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		sched := testSchedule(t)
		for {
			now := p.Now()
			for len(sched) > 0 && sched[0].At <= now {
				if noise {
					for _, bad := range []string{
						"add gb 0 1 rate=1.0 len=8", // duplicate src or over budget
						"remove 999",
						"resize 999 rate=0.5",
						"budget 99 share=0.5",
						"add gl 1 1 rate=0.9 len=8 latency=1 burst=99",
						"add gb 7 6 rate=0.1 len=4 lease=18446744073709551615", // ends past the last cycle
						"add gb 7 6 rate=0.1 len=4 lease=18446744073709551611",
						"add gb 7 6 rate=0.1 len=4 users=2147483647", // too many users to allocate
					} {
						cmd, err := ParseCommand(bad)
						if err != nil {
							t.Fatal(err)
						}
						if r := p.Apply(cmd); r.OK {
							t.Fatalf("noise command %q was accepted", bad)
						}
					}
				}
				p.Apply(sched[0].Cmd)
				sched = sched[1:]
			}
			if now >= testTotal {
				break
			}
			next := testTotal
			if len(sched) > 0 && sched[0].At < next {
				next = sched[0].At
			}
			if err := p.Advance(noc.SatSub(next, now)); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	clean, noisy := run(false), run(true)
	if clean.TraceHash() != noisy.TraceHash() || clean.Counters() != noisy.Counters() {
		t.Fatalf("rejected commands disturbed the run: hash %016x vs %016x",
			clean.TraceHash(), noisy.TraceHash())
	}
	if !tableStateEqual(clean.Table().State(), noisy.Table().State()) {
		t.Fatal("rejected commands disturbed the admission table")
	}

	// Numbers that parse but that the plane cannot honour are bad
	// requests, in both the add and the resize path: a lease whose end
	// would wrap past the last cycle (taken at cycle 5, these two would
	// end at cycle 4 and at 0, which means no lease), and a closed-loop
	// population too large to allocate.
	before := clean.Table().State()
	id := before.Reservations[0].ID
	for _, bad := range []string{
		"add gb 7 6 rate=0.1 len=4 lease=18446744073709551615",
		"add gb 7 6 rate=0.1 len=4 lease=18446744073709551611",
		fmt.Sprintf("resize %d lease=18446744073709551615", id),
		fmt.Sprintf("resize %d rate=0.01 lease=18446744073709551611", id),
		"add gb 7 6 rate=0.1 len=4 users=2147483647",
		"add gb 7 6 rate=0.1 len=4 users=65537",
	} {
		cmd, err := ParseCommand(bad)
		if err != nil {
			t.Fatal(err)
		}
		if r := clean.Apply(cmd); r.OK || r.Reason != ReasonBadRequest {
			t.Errorf("%q at cycle %d: %s, want a bad-request rejection", bad, clean.Now().Uint(), r)
		}
	}
	if !tableStateEqual(before, clean.Table().State()) {
		t.Fatal("a refused lease or population changed the admission table")
	}
	cmd, err := ParseCommand("add gb 7 6 rate=0.1 len=4 users=65536")
	if err != nil {
		t.Fatal(err)
	}
	if r := clean.Apply(cmd); !r.OK {
		t.Fatalf("the largest population refused: %s", r)
	}
}

// TestLeaseExpiryFreesBudget admits a leased reservation that fills the
// budget, watches the over-budget retry hint, and re-admits after the
// deterministic expiry.
func TestLeaseExpiryFreesBudget(t *testing.T) {
	cfg := testConfig(false)
	cfg.GBShare = 0.5
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(line string) Command {
		cmd, err := ParseCommand(line)
		if err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	if r := p.Apply(mk("add gb 0 1 rate=0.5 len=8 lease=1000")); !r.OK {
		t.Fatalf("leased add rejected: %s", r)
	}
	r := p.Apply(mk("add gb 2 1 rate=0.5 len=8"))
	if r.OK || r.Reason != ReasonGBBudget {
		t.Fatalf("expected gb-budget rejection, got %s", r)
	}
	if r.RetryAfter != 1000 {
		t.Fatalf("retry hint %d, want 1000 (the lease expiry)", r.RetryAfter.Uint())
	}
	if err := p.Advance(r.RetryAfter); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Expired != 1 {
		t.Fatalf("expired %d leases, want 1", st.Expired)
	}
	if r := p.Apply(mk("add gb 2 1 rate=0.5 len=8")); !r.OK {
		t.Fatalf("post-expiry add rejected: %s", r)
	}
}

// TestReplyCarriesVtick: an accepted add or resize replies with the Vtick
// the arbiter is programmed with, the ceiling of Frame*L over the granted
// cost, so a client sees the rounding its reservation got (0.60 at L = 4
// entitles 4/7 = 0.571 of the channel); other replies carry none.
func TestReplyCarriesVtick(t *testing.T) {
	p, err := New(SimConfig{Radix: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ line, want string }{
		{"add gb 0 1 rate=0.6 len=4", "ok id=1 cycle=0 vtick=7"},
		{"add gl 2 1 rate=0.04 len=4 latency=400 burst=2", "ok id=2 cycle=0 vtick=100"},
		{"resize 1 rate=0.35", "ok id=1 cycle=0 vtick=11"},
		{"resize 1 lease=500", "ok id=1 cycle=0 vtick=11"},
		{"remove 2", "ok id=2 cycle=0"},
		{"budget 1 share=0.5", "ok id=0 cycle=0"},
	} {
		cmd, err := ParseCommand(c.line)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Apply(cmd).String(); got != c.want {
			t.Errorf("%q: reply %q, want %q", c.line, got, c.want)
		}
	}
}

// TestClosedLoopCountsOnlyItsOwnPackets: a reservation removed with
// packets still queued drains on its (src, dst, class) after a users=
// reservation has taken that key. The closed loop must answer to its own
// deliveries only: a twin, ticked every cycle from the add and fed only
// the new flow's deliveries at the cycles the plane made them, must end
// with the same Issued, Done and TimedOut and the same state.
func TestClosedLoopCountsOnlyItsOwnPackets(t *testing.T) {
	cfg := SimConfig{Radix: 8, Seed: 3}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(line string) uint64 {
		t.Helper()
		cmd, err := ParseCommand(line)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Apply(cmd)
		if !res.OK {
			t.Fatalf("%q: %s", line, res)
		}
		return res.ID
	}
	// Output 1 is offered 2.7 flits a cycle, so 0->1 queues at its source.
	old := apply("add gb 0 1 rate=0.2 len=8 load=0.9")
	apply("add gb 2 1 rate=0.2 len=8 load=0.9")
	apply("add gb 3 1 rate=0.2 len=8 load=0.9")
	if err := p.AdvanceTo(3000); err != nil {
		t.Fatal(err)
	}
	apply(fmt.Sprintf("remove %d", old))
	if err := p.AdvanceTo(3100); err != nil {
		t.Fatal(err)
	}
	added := p.Now()
	id := apply("add gb 0 1 rate=0.2 len=8 users=4")
	g := p.attached[id].gen.(*traffic.ClosedLoop)

	type delivery struct {
		at  noc.Cycle
		pkt noc.Packet
	}
	var own []delivery
	stale := 0
	p.OnDeliver(func(pkt *noc.Packet) {
		if pkt.Src != 0 || pkt.Dst != 1 || pkt.Class != noc.GuaranteedBandwidth {
			return
		}
		if pkt.CreatedAt < added {
			if g.InFlight() > 0 {
				stale++ // a delivery the closed loop could have taken for its own
			}
			return
		}
		own = append(own, delivery{p.Now(), *pkt})
	})
	const end = 15000
	if err := p.AdvanceTo(end); err != nil {
		t.Fatal(err)
	}
	if stale == 0 || len(own) < 100 {
		t.Fatalf("the script lost its point: %d earlier packets delivered during a request, %d of the closed loop's own", stale, len(own))
	}

	twin := traffic.NewClosedLoop(new(traffic.Sequence), p.tab.Get(id).Req.Spec(), traffic.ClosedLoopConfig{Users: 4},
		runner.DeriveSeed(cfg.Seed, int(id)))
	for now, k := added, 0; now < end; now++ {
		twin.Tick(now, 0)
		for ; k < len(own) && own[k].at == now; k++ {
			twin.Completed(&own[k].pkt)
		}
	}
	if g.Issued != twin.Issued || g.Done != twin.Done || g.TimedOut != twin.TimedOut {
		t.Fatalf("closed loop issued/done/timed out %d/%d/%d, a twin fed its own deliveries only %d/%d/%d",
			g.Issued, g.Done, g.TimedOut, twin.Issued, twin.Done, twin.TimedOut)
	}
	// Past the leading watermark, which numbers each one's own sequence,
	// the two states must be the same bytes.
	state := func(c *traffic.ClosedLoop) []byte {
		b := c.AppendState(nil)
		_, n := binary.Uvarint(b)
		return b[n:]
	}
	if !bytes.Equal(state(g), state(twin)) {
		t.Fatal("the closed loop's state is not its twin's")
	}
}
