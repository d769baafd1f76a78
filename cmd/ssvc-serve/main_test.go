package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"swizzleqos/internal/ctlplane"
)

const replyWait = 30 * time.Second

// daemon is a serveMain running in-process on a loopback port.
type daemon struct {
	addr    string
	journal string
	stop    chan struct{}
	exit    chan int
	stdout  *output
	stderr  *output
}

// output collects what the daemon prints and hands out the address of
// its "listening on" line as soon as that line is written.
type output struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

var listeningRE = regexp.MustCompile(`(?m)^listening on (\S+)\n`)

func (o *output) Write(b []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(b)
	if o.addr != nil {
		if m := listeningRE.FindSubmatch(o.buf.Bytes()); m != nil {
			o.addr <- string(m[1])
			o.addr = nil
		}
	}
	return len(b), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// startDaemon runs serveMain with a fresh journal and a -total out of
// reach, and waits until it listens.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	d := &daemon{
		journal: filepath.Join(t.TempDir(), "journal.jsonl"),
		stop:    make(chan struct{}),
		exit:    make(chan int, 1),
		stdout:  &output{addr: make(chan string, 1)},
		stderr:  &output{},
	}
	args := append([]string{"-listen", "127.0.0.1:0", "-journal", d.journal,
		"-total", strconv.FormatUint(1<<40, 10), "-seed", "5"}, extra...)
	addr := d.stdout.addr
	go func() { d.exit <- serveMain(args, d.stdout, d.stderr, d.stop) }()
	select {
	case d.addr = <-addr:
	case code := <-d.exit:
		t.Fatalf("daemon exited %d before listening: %s", code, d.stderr)
	case <-time.After(replyWait):
		t.Fatal("daemon never listened")
	}
	return d
}

// shutdown closes the stop channel and waits for a clean exit, which
// serveMain reaches only after every goroutine it started has returned.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	close(d.stop)
	select {
	case code := <-d.exit:
		if code != 0 {
			t.Fatalf("daemon exited %d: %s", code, d.stderr)
		}
	case <-time.After(replyWait):
		t.Fatal("daemon did not stop")
	}
}

// client is one closed-loop connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, replyWait)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// do sends one command line and returns the reply line.
func (c *client) do(line string) (string, error) {
	c.conn.SetDeadline(time.Now().Add(replyWait))
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		return "", err
	}
	reply, err := c.r.ReadString('\n')
	return strings.TrimSpace(reply), err
}

// acked is a command a client saw acknowledged OK, as the journal keys it.
type acked struct {
	op    ctlplane.Op
	id    uint64
	cycle uint64
}

var okRE = regexp.MustCompile(`^ok id=(\d+) cycle=(\d+)(?: vtick=\d+)?$`)

func parseOK(reply string) (id, cycle uint64, ok bool) {
	m := okRE.FindStringSubmatch(reply)
	if m == nil {
		return 0, 0, false
	}
	id, _ = strconv.ParseUint(m[1], 10, 64)
	cycle, _ = strconv.ParseUint(m[2], 10, 64)
	return id, cycle, true
}

// churn runs add -> remove rounds from input k until rounds are done or
// the daemon stops answering OK, with every tenth add over budget. It
// returns the acknowledged commands and the first reply that was neither
// an OK nor the designed rejection ("" if none; an I/O error's text if
// the connection died).
func churn(c *client, k, rounds int, onAck func()) (acks []acked, last string) {
	for round := 0; round < rounds; round++ {
		dst := (k + 1 + round%7) % 8
		if round%10 == 9 {
			reply, err := c.do(fmt.Sprintf("add gb %d %d rate=0.9 len=8", k, dst))
			if err != nil {
				return acks, err.Error()
			}
			if !strings.HasPrefix(reply, "err reason=gb-budget ") {
				return acks, reply
			}
			continue
		}
		reply, err := c.do(fmt.Sprintf("add gb %d %d rate=0.05 len=%d", k, dst, 2+2*(round%3)))
		if err != nil {
			return acks, err.Error()
		}
		id, cycle, ok := parseOK(reply)
		if !ok {
			return acks, reply
		}
		acks = append(acks, acked{ctlplane.OpAdd, id, cycle})
		onAck()
		reply, err = c.do(fmt.Sprintf("remove %d", id))
		if err != nil {
			return acks, err.Error()
		}
		if _, cycle, ok = parseOK(reply); !ok {
			return acks, reply
		}
		acks = append(acks, acked{ctlplane.OpRemove, id, cycle})
		onAck()
	}
	return acks, ""
}

// journalHolds fails unless the journal holds every acknowledged
// command, at the cycle its reply was stamped with.
func journalHolds(t *testing.T, recs []ctlplane.Record, acks []acked) {
	t.Helper()
	held := map[acked]int{}
	for _, r := range recs {
		if r.Kind != ctlplane.KindCmd || r.Cmd == nil {
			continue
		}
		id := r.Cmd.ID
		if r.Cmd.Cmd.Op != ctlplane.OpAdd {
			id = r.Cmd.Cmd.ID
		}
		held[acked{r.Cmd.Cmd.Op, id, r.Cmd.Cycle.Uint()}]++
	}
	for _, a := range acks {
		if held[a] == 0 {
			t.Fatalf("%s of reservation %d acknowledged at cycle %d is not in the journal", a.op, a.id, a.cycle)
		}
		held[a]--
	}
}

func readJournal(t *testing.T, path string) []ctlplane.Record {
	t.Helper()
	recs, _, warn, err := ctlplane.ReadJournal(path)
	if err != nil || warn != "" {
		t.Fatalf("journal of a clean stop: err=%v warn=%q", err, warn)
	}
	return recs
}

// summary returns the last two lines a run printed, the rejected=
// counter masked: rejections are never journaled, so a replay counts
// none.
func summary(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) > 2 {
		lines = lines[len(lines)-2:]
	}
	return regexp.MustCompile(`rejected=\d+`).ReplaceAllString(strings.Join(lines, "\n"), "rejected=-")
}

// TestBatchedChurn runs 8 closed-loop clients against a paced daemon, so
// that their commands meet at its cycle boundaries: every OK must be in
// the journal, the journal must have cost fewer fsyncs than it holds
// commands, and replaying it must reproduce the live run's trace hash.
func TestBatchedChurn(t *testing.T) {
	const clients, rounds, pace = 8, 50, 100
	d := startDaemon(t, "-pace", strconv.Itoa(pace), "-snap-every", "2000")
	begin := time.Now()
	var wg sync.WaitGroup
	acks := make([][]acked, clients)
	lasts := make([]string, clients)
	for k := 0; k < clients; k++ {
		c := dial(t, d.addr)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			acks[k], lasts[k] = churn(c, k, rounds, func() {})
		}(k)
	}
	wg.Wait()
	d.shutdown(t)
	elapsed := time.Since(begin)

	var all []acked
	for k := range acks {
		if lasts[k] != "" {
			t.Fatalf("client %d: unexpected reply %q", k, lasts[k])
		}
		all = append(all, acks[k]...)
	}
	if want := clients * (rounds - rounds/10) * 2; len(all) != want {
		t.Fatalf("%d commands acknowledged, want %d", len(all), want)
	}
	recs := readJournal(t, d.journal)
	journalHolds(t, recs, all)

	out := d.stdout.String()
	m := regexp.MustCompile(`(?m)^journal records=(\d+) syncs=(\d+)\n(.*\n){2}\z`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no journal line before the two summary lines:\n%s", out)
	}
	records, _ := strconv.Atoi(m[1])
	syncs, _ := strconv.Atoi(m[2])
	if records != len(recs) {
		t.Fatalf("daemon counted %d records, the journal holds %d", records, len(recs))
	}
	if syncs >= len(all) {
		t.Fatalf("%d fsyncs for %d acknowledged commands: nothing was batched", syncs, len(all))
	}

	// -pace is a ceiling on simulated cycles per wall millisecond.
	cycle, _ := strconv.ParseUint(regexp.MustCompile(`(?m)^cycle=(\d+) `).FindStringSubmatch(out)[1], 10, 64)
	if floor := time.Duration(cycle/pace) * time.Millisecond; elapsed < floor {
		t.Fatalf("%d cycles in %v: faster than -pace %d allows (%v)", cycle, elapsed, pace, floor)
	}

	var replayed, replayErr strings.Builder
	if code := serveMain([]string{"-replay", d.journal}, &replayed, &replayErr, nil); code != 0 {
		t.Fatalf("replay exited %d: %s", code, replayErr.String())
	}
	if got, want := summary(replayed.String()), summary(out); got != want {
		t.Fatalf("replay diverged from the live run:\n%s\nlive:\n%s", got, want)
	}
}

// TestProtocolLimits checks the three typed refusals of the TCP edge: a
// line past maxLine, a connection past maxConns, and a connection silent
// for ioTimeout.
func TestProtocolLimits(t *testing.T) {
	d := startDaemon(t)

	// A 1 MB line is answered and the connection closed, however much of
	// the line is still on its way.
	long := dial(t, d.addr)
	sent := make(chan error, 1)
	go func() {
		_, err := long.conn.Write(append(bytes.Repeat([]byte{'a'}, 1<<20), '\n'))
		sent <- err
	}()
	long.conn.SetReadDeadline(time.Now().Add(replyWait))
	reply, err := io.ReadAll(long.r)
	if err != nil {
		t.Fatalf("reading the reply to a 1 MB line: %v", err)
	}
	if want := "err reason=bad-request msg=\"line too long\"\n"; string(reply) != want {
		t.Fatalf("1 MB line answered %q, want %q", reply, want)
	}
	<-sent // whatever the write's fate, it is over
	long.conn.Close()

	// maxConns connections are served; each proves it with a command, so
	// all of them are registered before the next one arrives.
	held := make([]*client, maxConns)
	for i := range held {
		held[i] = dial(t, d.addr)
		if reply, err := held[i].do("remove 999"); err != nil || !strings.HasPrefix(reply, "err reason=not-found ") {
			t.Fatalf("connection %d: %q, %v", i, reply, err)
		}
	}
	over := dial(t, d.addr)
	over.conn.SetReadDeadline(time.Now().Add(replyWait))
	reply, err = io.ReadAll(over.r)
	if err != nil {
		t.Fatalf("reading the refusal of connection %d: %v", maxConns+1, err)
	}
	if want := fmt.Sprintf("err reason=busy msg=\"too many connections (limit %d)\"\n", maxConns); string(reply) != want {
		t.Fatalf("connection past the limit answered %q, want %q", reply, want)
	}
	if reply, err := held[0].do("add gb 0 1 rate=0.1 len=4"); err != nil || !strings.HasPrefix(reply, "ok ") {
		t.Fatalf("a held connection stopped working: %q, %v", reply, err)
	}
	d.shutdown(t)

	// A connection that falls silent keeps its slot for ioTimeout and no
	// longer: it is answered idle and closed, so with every slot once
	// held, the next connection is served instead of refused busy.
	defer func(was time.Duration) { ioTimeout = was }(ioTimeout)
	ioTimeout = time.Second
	d = startDaemon(t)
	for i := range held {
		held[i] = dial(t, d.addr)
		if reply, err := held[i].do("remove 999"); err != nil || !strings.HasPrefix(reply, "err reason=not-found ") {
			t.Fatalf("connection %d: %q, %v", i, reply, err)
		}
	}
	for i, c := range held {
		c.conn.SetReadDeadline(time.Now().Add(replyWait))
		reply, err := io.ReadAll(c.r)
		if err != nil {
			t.Fatalf("reading the idle close of connection %d: %v", i, err)
		}
		if want := "err reason=idle msg=\"no command for 1s\"\n"; string(reply) != want {
			t.Fatalf("idle connection %d answered %q, want %q", i, reply, want)
		}
	}
	if reply, err := dial(t, d.addr).do("remove 999"); err != nil || !strings.HasPrefix(reply, "err reason=not-found ") {
		t.Fatalf("a connection after the idle ones left: %q, %v", reply, err)
	}
	d.shutdown(t)
}

// TestStopMidChurn closes the stop channel under 8 churning clients: the
// daemon must exit 0 with a journal that ends in an end record and
// replays, every OK any client saw must be in it, and what a client saw
// instead of an OK is a frozen refusal or a closed connection.
func TestStopMidChurn(t *testing.T) {
	const clients = 8
	d := startDaemon(t, "-snap-every", "50000")
	var wg sync.WaitGroup
	acks := make([][]acked, clients)
	lasts := make([]string, clients)
	enough := make(chan struct{})
	var mu sync.Mutex
	seen := 0
	onAck := func() {
		mu.Lock()
		defer mu.Unlock()
		if seen++; seen == 200 {
			close(enough)
		}
	}
	for k := 0; k < clients; k++ {
		c := dial(t, d.addr)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			acks[k], lasts[k] = churn(c, k, 1<<30, onAck)
		}(k)
	}
	select {
	case <-enough:
	case <-time.After(replyWait):
		t.Fatal("the churn never got going")
	}
	d.shutdown(t)
	wg.Wait()

	var all []acked
	for k := range acks {
		if last := lasts[k]; !strings.HasPrefix(last, "err reason=frozen ") &&
			!strings.Contains(last, "EOF") && !strings.Contains(last, "reset") && !strings.Contains(last, "closed") {
			t.Fatalf("client %d stopped on %q", k, last)
		}
		all = append(all, acks[k]...)
	}
	recs := readJournal(t, d.journal)
	journalHolds(t, recs, all)
	if last := recs[len(recs)-1]; last.Kind != ctlplane.KindEnd {
		t.Fatalf("journal of a clean stop ends in a %q record", last.Kind)
	}
	if _, err := ctlplane.Rebuild(recs, ctlplane.ReplayOptions{}); err != nil {
		t.Fatalf("journal of a clean stop does not replay: %v", err)
	}
}

// TestRecoveryReport cuts a finished scripted run's journal back to what
// a SIGKILL between two snapshots leaves (its last record a command, 2500
// cycles behind a snapshot) and restarts the daemon on it. Without -trace
// recovery starts at that snapshot and re-executes at most -snap-every
// cycles; with -trace it re-executes every cycle from the header, and
// regenerates the whole trace. Both say so, and both finish the run as
// the uninterrupted daemon did.
func TestRecoveryReport(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "script")
	const text = "@1000 add gb 0 1 rate=0.3 len=8 load=0.5\n@9000 add gb 2 3 rate=0.2 len=4 lease=9000\n" +
		"@17000 add gl 4 1 rate=0.04 len=4 latency=400 burst=2\n@22500 resize 1 rate=0.2\n"
	if err := os.WriteFile(script, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(journal string, extra ...string) string {
		t.Helper()
		var out, errOut strings.Builder
		args := append([]string{"-journal", journal, "-script", script, "-total", "25000", "-snap-every", "4000"}, extra...)
		if code := serveMain(args, &out, &errOut, nil); code != 0 || errOut.Len() != 0 {
			t.Fatalf("ssvc-serve %v exited %d: %s", args, code, errOut.String())
		}
		return out.String()
	}
	ref := filepath.Join(dir, "ref.jsonl")
	refTrace := filepath.Join(dir, "ref.trace")
	want := run(ref, "-trace", refTrace)

	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndex(data, []byte(`"kind":"cmd"`))
	cut := last + bytes.IndexByte(data[last:], '\n') + 1
	if bytes.Count(data[cut:], []byte("\n")) != 2 {
		t.Fatalf("want a snapshot and the end record behind the last command, got:\n%s", data[cut:])
	}

	report := regexp.MustCompile(`(?m)^recovered journal \S+ at cycle 22500 \(2 reservations; snapshot at cycle (\d+), (\d+) cycles re-executed\)\n`)
	for _, tc := range []struct {
		name               string
		trace              bool
		snapshot, executed string
	}{
		{"from the last snapshot", false, "20000", "2500"},
		{"with -trace, from the header", true, "0", "22500"},
	} {
		killed := filepath.Join(dir, "killed.jsonl")
		if err := os.WriteFile(killed, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var extra []string
		trace := filepath.Join(dir, "resumed.trace")
		if tc.trace {
			extra = []string{"-trace", trace}
		}
		out := run(killed, extra...)
		m := report.FindStringSubmatch(out)
		if m == nil || m[1] != tc.snapshot || m[2] != tc.executed {
			t.Fatalf("%s: want snapshot at cycle %s and %s cycles re-executed, got:\n%s", tc.name, tc.snapshot, tc.executed, out)
		}
		if got := summary(out); got != summary(want) {
			t.Fatalf("%s: resumed run diverged:\n%s\nuninterrupted:\n%s", tc.name, got, summary(want))
		}
		resumed, err := os.ReadFile(killed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, data) {
			t.Fatalf("%s: the resumed journal differs from the uninterrupted run's", tc.name)
		}
		if tc.trace {
			a, _ := os.ReadFile(refTrace)
			b, _ := os.ReadFile(trace)
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Fatalf("%s: the regenerated trace (%d bytes) differs from the uninterrupted run's (%d bytes)", tc.name, len(b), len(a))
			}
		}
	}

	// The @22500 command is skipped by its tag, which is read from the
	// records stamped at the recovered cycle alone: behind a history that
	// would not even decode, the tail still names it.
	garbled := filepath.Join(dir, "garbled.jsonl")
	if err := os.WriteFile(garbled, append([]byte("not a record\n"), data[:cut]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if tags := journaledTags(garbled, 22500); len(tags) != 1 || tags[0] != "L4" {
		t.Fatalf("tags at the recovered cycle: %q, want [L4]", tags)
	}

	// A restart without -script has nothing to skip and reads no tag; the
	// killed run's script was done, so it still finishes the same run.
	killed := filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(killed, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	args := []string{"-journal", killed, "-total", "25000", "-snap-every", "4000"}
	if code := serveMain(args, &out, &errOut, nil); code != 0 || errOut.Len() != 0 {
		t.Fatalf("ssvc-serve %v exited %d: %s", args, code, errOut.String())
	}
	if m := report.FindStringSubmatch(out.String()); m == nil || m[1] != "20000" || m[2] != "2500" {
		t.Fatalf("without -script: want snapshot at cycle 20000 and 2500 cycles re-executed, got:\n%s", out.String())
	}
	if got := summary(out.String()); got != summary(want) {
		t.Fatalf("without -script: resumed run diverged:\n%s\nuninterrupted:\n%s", got, summary(want))
	}
	if resumed, err := os.ReadFile(killed); err != nil || !bytes.Equal(resumed, data) {
		t.Fatalf("without -script: the resumed journal differs from the uninterrupted run's (%v)", err)
	}
}

// TestTraceWriteError: a delivery trace that cannot be written fails
// the run with exit status 1 and the write error on stderr, in serve
// mode and in replay mode. /dev/full refuses every write with ENOSPC, as
// a full disk does.
func TestTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "script")
	if err := os.WriteFile(script, []byte("@100 add gb 0 1 rate=0.3 len=8 load=0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "j.jsonl")
	for _, args := range [][]string{
		{"-journal", journal, "-script", script, "-total", "20000", "-trace", "/dev/full"},
		{"-replay", journal, "-trace", "/dev/full"},
	} {
		var out, errOut strings.Builder
		if code := serveMain(args, &out, &errOut, nil); code != 1 {
			t.Fatalf("%v: exit %d, want 1 (stderr %q)", args, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "write trace") || !strings.Contains(errOut.String(), "no space left") {
			t.Fatalf("%v: stderr %q does not carry the write error", args, errOut.String())
		}
	}
}

// TestRemovedShardFlags: the switch runs one serial cycle, so -shards and
// -shard-workers are unknown flags, in serve mode and in replay mode, and
// exit 2 before any journal is touched.
func TestRemovedShardFlags(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	for _, args := range [][]string{
		{"-journal", journal, "-shards", "2"},
		{"-replay", journal, "-shard-workers", "2"},
	} {
		var out, errOut strings.Builder
		if code := serveMain(args, &out, &errOut, nil); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Fatalf("%v: stderr %q", args, errOut.String())
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("a refused command line created the journal: %v", err)
	}
}
