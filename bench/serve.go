package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"swizzleqos/internal/ctlplane"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/traffic"
)

const (
	serveRadix = 8
	// serveConns closed-loop connections, callers that each wait for a
	// reply before sending the next command: at most nproc of them.
	serveConns = 2
	// servePasses is the daemon lifetimes of one untraced run: each runs the
	// same script, and a command's time is the fastest of its executions.
	servePasses = 12
	// serveRounds is the add -> (resize) -> remove rounds per connection and
	// pass in a 10-second run on the reference host.
	serveRounds = 100
	// serveSnapEvery is 64 chunks, a few snapshots in a pass. At the daemon's
	// default two steps in five would carry one, and which ones depends on
	// the cycle the churn starts at, which differs from pass to pass: the
	// fastest execution of a step would then be one without a snapshot.
	// ctl_recover is where a snapshot's cost shows.
	serveSnapEvery = 64 * 4096
	replyWait      = 20 * time.Second
)

// daemon is a spawned ssvc-serve.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	journal string
	connect time.Duration // spawn to first accepted connection
	peakMB  float64       // peak resident set when it was killed
}

// startDaemon spawns ssvc-serve on a free loopback port with a fresh
// journal in the work dir and waits until it accepts a connection.
func startDaemon(e *env, bin, tag string) (*daemon, net.Conn, error) {
	d := &daemon{journal: filepath.Join(e.workdir, fmt.Sprintf("serve-%s-%d.journal", tag, e.seed))}
	if err := os.Remove(d.journal); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	d.cmd = exec.CommandContext(e.ctx, bin, "-listen", "127.0.0.1:0", "-journal", d.journal,
		"-total", strconv.FormatUint(1<<62, 10), "-radix", strconv.Itoa(serveRadix),
		"-snap-every", strconv.Itoa(serveSnapEvery), "-seed", strconv.FormatUint(e.seed, 10))
	// -total is out of reach, so a daemon that outlived the benchmark (a
	// SIGKILL or a test timeout runs no deferred stop) would simulate on one
	// of the host's cores through every later measurement: the kernel kills
	// it when the benchmark's thread that started it dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	d.cmd.Stderr = e.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, nil, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			d.addr = strings.TrimSpace(rest)
			break
		}
	}
	if d.addr == "" {
		d.stop()
		return nil, nil, fmt.Errorf("ssvc-serve exited before listening")
	}
	conn, err := net.DialTimeout("tcp", d.addr, replyWait)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	d.connect = time.Since(start)
	return d, conn, nil
}

// stop SIGKILLs the daemon and waits for it, noting its peak resident set
// first; safe to call twice.
func (d *daemon) stop() {
	if d.cmd.ProcessState != nil {
		return
	}
	d.peakMB = peakRSSMB(d.cmd.Process.Pid)
	d.cmd.Process.Kill()
	d.cmd.Wait() // the kill is the expected exit
}

// client is one closed-loop connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func newClient(conn net.Conn) *client { return &client{conn: conn, r: bufio.NewReader(conn)} }

// reply is a parsed result line: "ok id=N cycle=C" or "err reason=R cycle=C ...".
type reply struct {
	ok     bool
	id     uint64
	cycle  uint64
	reason string
	sent   time.Time
	took   time.Duration
}

// send writes one command line and returns when it was sent.
func (c *client) send(line string) (time.Time, error) {
	sent := time.Now()
	c.conn.SetDeadline(sent.Add(replyWait))
	_, err := fmt.Fprintf(c.conn, "%s\n", line)
	return sent, err
}

// recv waits for the reply line to the command sent at sent.
func (c *client) recv(sent time.Time) (reply, error) {
	rp := reply{sent: sent}
	text, err := c.r.ReadString('\n')
	rp.took = time.Since(sent)
	if err != nil {
		return rp, err
	}
	fields := strings.Fields(text)
	rp.ok = len(fields) > 0 && fields[0] == "ok"
	for _, f := range fields {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "id":
			rp.id, _ = strconv.ParseUint(v, 10, 64)
		case "cycle":
			rp.cycle, _ = strconv.ParseUint(v, 10, 64)
		case "reason":
			rp.reason = v
		}
	}
	return rp, nil
}

// do sends one command line and waits for its reply line.
func (c *client) do(line string) (reply, error) {
	sent, err := c.send(line)
	if err != nil {
		return reply{sent: sent}, err
	}
	return c.recv(sent)
}

// acked is a command the client saw acknowledged OK.
type acked struct {
	op    ctlplane.Op
	id    uint64
	cycle uint64
}

// churnResult is what one connection's rounds observed.
type churnResult struct {
	replies  []reply // every command, in order
	acked    []acked
	rejected int // designed over-budget adds refused as designed
	failed   int
	failures []string // the first few of them
}

func (cr *churnResult) failf(format string, args ...any) {
	cr.failed++
	if len(cr.failures) < 10 {
		cr.failures = append(cr.failures, fmt.Sprintf(format, args...))
	}
}

// planStep is one command of a connection's script. A resize or remove
// acts on the connection's latest add, whose id only the reply gives.
type planStep struct {
	op         ctlplane.Op
	args       string // add: everything after "add gb"; resize: the options
	overBudget bool   // an add that must be refused with gb-budget
}

func (p planStep) line(id uint64) string {
	switch p.op {
	case ctlplane.OpAdd:
		return "add gb " + p.args
	case ctlplane.OpResize:
		return fmt.Sprintf("resize %d %s", id, p.args)
	}
	return fmt.Sprintf("remove %d", id)
}

// churnPlan generates connection k's script: rounds of add -> (every 4th:
// resize) -> remove, with one add in ten asking for more than the output
// has left. Connection k owns inputs k, k+2, ..., so the two never
// contend for a (src,dst) pair; destinations, rates and lengths come from
// the seed. Every connection's script has the same shape, so the
// connections stay in step command by command.
func churnPlan(k, rounds int, seed uint64) []planStep {
	rng := traffic.NewRNG(runner.DeriveSeed(seed, 50+k))
	var plan []planStep
	for round := 0; round < rounds; round++ {
		src := k + serveConns*rng.Intn(serveRadix/serveConns)
		// Never src+1, which a long-lived reservation holds.
		dst := (src + 2 + rng.Intn(serveRadix-2)) % serveRadix
		rate := 0.02 + 0.01*float64(rng.Intn(4))
		length := 2 + 2*rng.Intn(3)
		if round%10 == 9 {
			plan = append(plan, planStep{op: ctlplane.OpAdd, overBudget: true,
				args: fmt.Sprintf("%d %d rate=0.60 len=%d", src, dst, length)})
			continue
		}
		plan = append(plan, planStep{op: ctlplane.OpAdd, args: fmt.Sprintf("%d %d rate=%.2f len=%d", src, dst, rate, length)})
		if round%4 == 3 {
			plan = append(plan, planStep{op: ctlplane.OpResize, args: fmt.Sprintf("rate=%.3f", rate/2)})
		}
		plan = append(plan, planStep{op: ctlplane.OpRemove})
	}
	return plan
}

// record judges one reply against the step that caused it.
func (cr *churnResult) record(p planStep, id uint64, rp reply, err error) {
	cr.replies = append(cr.replies, rp)
	switch {
	case err != nil:
		cr.failf("%s: %v", p.line(id), err)
	case p.overBudget && !rp.ok && rp.reason == string(ctlplane.ReasonGBBudget):
		cr.rejected++
	case p.overBudget:
		cr.failf("over-budget add answered ok=%v reason=%q", rp.ok, rp.reason)
	case !rp.ok:
		cr.failf("%s refused: %s", p.line(id), rp.reason)
	case p.op == ctlplane.OpAdd:
		cr.acked = append(cr.acked, acked{p.op, rp.id, rp.cycle})
	default:
		cr.acked = append(cr.acked, acked{p.op, id, rp.cycle})
	}
}

// churn runs the connections' scripts in step: every connection sends its
// next command, then every connection waits for its reply. The callers are
// closed-loop, and starting each command together makes the daemon's work
// repeat: each command arrives while the daemon simulates a chunk and
// waits for that chunk to end, so the daemon simulates one chunk per step
// whatever the disk's speed, and every pass's journal covers the same
// cycles. steps is what each step took, from the end of the step before
// it (its own first send, for the first) to its last reply: a closed-loop
// caller's send to reply with its own turnaround. Timed from the send
// alone, a caller the host held up would see a shorter wait, because less
// of the daemon's chunk would be left.
func churn(clients []*client, rounds int, seed uint64) (results []*churnResult, steps []time.Duration) {
	plans := make([][]planStep, len(clients))
	results = make([]*churnResult, len(clients))
	for k := range clients {
		plans[k] = churnPlan(k, rounds, seed)
		results[k] = &churnResult{}
	}
	ids := make([]uint64, len(clients))
	sent := make([]time.Time, len(clients))
	errs := make([]error, len(clients))
	var last time.Time // the end of the step before
	for i := range plans[0] {
		for k, c := range clients {
			sent[k], errs[k] = c.send(plans[k][i].line(ids[k]))
		}
		for k, c := range clients {
			var rp reply
			if errs[k] == nil {
				rp, errs[k] = c.recv(sent[k])
			}
			results[k].record(plans[k][i], ids[k], rp, errs[k])
			if errs[k] != nil {
				return results, steps // a dead connection: the rounds cannot go on
			}
			if plans[k][i].op == ctlplane.OpAdd && rp.ok {
				ids[k] = rp.id
			}
		}
		now := time.Now()
		if i == 0 {
			last = sent[0]
		}
		steps = append(steps, now.Sub(last))
		last = now
	}
	return results, steps
}

// servePass is one daemon lifetime: spawn, install, churn, SIGKILL.
type servePass struct {
	d       *daemon
	results []*churnResult
	setup   time.Duration   // spawn until the long-lived reservations are installed
	steps   []time.Duration // of the churn
	wall    time.Duration   // of the churn
}

// servePassRun installs 8 long-lived loaded reservations, one per output
// at 40 % of it, then runs the churn on serveConns connections at once.
func servePassRun(e *env, bin, tag string, rounds int) (*servePass, error) {
	t0 := time.Now()
	d, conn, err := startDaemon(e, bin, tag)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p := &servePass{d: d}
	clients := []*client{newClient(conn)}
	for len(clients) < serveConns {
		c, err := net.DialTimeout("tcp", d.addr, replyWait)
		if err != nil {
			return nil, err
		}
		clients = append(clients, newClient(c))
	}
	defer func() {
		for _, c := range clients {
			c.conn.Close()
		}
	}()
	install := &churnResult{}
	for i := 0; i < serveRadix; i++ {
		rp, err := clients[0].do(fmt.Sprintf("add gb %d %d rate=0.40 len=8", i, (i+1)%serveRadix))
		if err != nil {
			return nil, fmt.Errorf("install long-lived reservation: %w", err)
		}
		if !rp.ok {
			return nil, fmt.Errorf("install long-lived reservation %d refused: %s", i, rp.reason)
		}
		install.acked = append(install.acked, acked{ctlplane.OpAdd, rp.id, rp.cycle})
	}
	p.setup = time.Since(t0)
	start := time.Now()
	p.results, p.steps = churn(clients, rounds, e.seed)
	p.wall = time.Since(start)
	p.results = append(p.results, install)
	d.stop()
	return p, nil
}

// recoverJournal recovers the journal as a restarted daemon would: every
// cycle is re-executed and every snapshot verified along the way.
func recoverJournal(path string) error {
	p, _, err := ctlplane.RecoverFile(path, ctlplane.ReplayOptions{})
	if err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("journal %s holds no records", path)
	}
	return p.CloseJournal()
}

// ackedMissing counts the commands a client saw acknowledged that the
// journal, read as a recovery reads it, does not hold.
func ackedMissing(path string, results []*churnResult) (missing int, err error) {
	recs, _, _, err := ctlplane.ReadJournal(path)
	if err != nil {
		return 0, err
	}
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
	for _, cr := range results {
		for _, a := range cr.acked {
			if held[a] == 0 {
				missing++
				continue
			}
			held[a]--
		}
	}
	return missing, nil
}

// check counts as one operation that the killed daemon's journal holds
// every acked command and, with replay, as another that a restarted daemon
// recovers it; ok is false when the journal could not be read.
func (p *servePass) check(res *workloadResult, replay bool) (missing int, ok bool) {
	if replay {
		err := recoverJournal(p.d.journal)
		res.op(err == nil, "recover the killed daemon's journal: %v", err)
		if err != nil {
			return 0, false
		}
	}
	missing, err := ackedMissing(p.d.journal, p.results)
	res.op(err == nil && missing == 0, "%d commands acked OK are missing from the killed daemon's journal (read error: %v)", missing, err)
	return missing, err == nil
}

// stampRate is simulated cycles per host second between the first and the
// last reply, from their cycle= stamps.
func stampRate(results []*churnResult) float64 {
	var first, last reply
	for _, cr := range results {
		for _, rp := range cr.replies {
			if rp.took == 0 {
				continue
			}
			if first.sent.IsZero() || rp.sent.Before(first.sent) {
				first = rp
			}
			if rp.sent.After(last.sent) {
				last = rp
			}
		}
	}
	span := last.sent.Sub(first.sent)
	if span <= 0 {
		return 0
	}
	return float64(noc.SatSub(last.cycle, first.cycle)) / seconds(span)
}

// tally counts a pass's commands as operations and returns every ack
// latency in send order per connection, and the number acked OK.
func (p *servePass) tally(res *workloadResult) (ackMS []float64, ackedOK, rejected int) {
	for _, cr := range p.results[:serveConns] {
		for _, rp := range cr.replies {
			ackMS = append(ackMS, millis(rp.took))
		}
		for i := 0; i < len(cr.replies)-cr.failed; i++ {
			res.op(true, "")
		}
		for i := 0; i < cr.failed; i++ {
			why := "a further failed command, not listed"
			if i < len(cr.failures) {
				why = cr.failures[i]
			}
			res.op(false, "%s", why)
		}
		ackedOK += len(cr.acked)
		rejected += cr.rejected
	}
	return ackMS, ackedOK, rejected
}

func runServe(e *env) *workloadResult {
	res := newResult(e)
	rounds := int(float64(serveRounds) * e.scale())
	if rounds < 10 {
		rounds = 10
	}
	bin, err := buildBinary(e, "ssvc-serve")
	if err != nil {
		return res.fail(err)
	}
	if e.traced {
		return runServeTraced(e, res, bin, 2*rounds)
	}

	// Every pass runs the same script against a fresh daemon, and only the
	// last pass's journal is replayed: the others are read back and checked
	// for the acked commands, which is what differs between them.
	passes := e.passes(servePasses)
	var setups []float64
	var steps [][]float64 // by pass, in ms
	ackedOK := 0
	alloc0 := totalAlloc()
	for k := 0; k < passes; k++ {
		p, err := servePassRun(e, bin, fmt.Sprintf("run%d", k), rounds)
		if err != nil {
			return res.fail(err)
		}
		_, ackedOK, _ = p.tally(res)
		if _, ok := p.check(res, k == passes-1); !ok {
			return res
		}
		setups = append(setups, seconds(p.setup))
		steps = append(steps, durationsMS(p.steps))
	}
	alloc1 := totalAlloc()

	// A command's time is the fastest execution of its step: the two
	// connections' commands of a step are acked by the same drain.
	ack := fastest(steps)
	window := sum(ack) / 1e3 // the churn, every step at its fastest
	res.setFastest("setup_s", setups)
	res.setSamples("admit_per_s", float64(ackedOK)/window, 0, 0, ackedOK)
	res.setMedian("ack_p50_ms", ack)
	res.setPercentile("ack_p90_ms", ack, 90)
	res.fill(window, megabytes(alloc0, alloc1))
	res.Counts["commands"] = fmt.Sprint(serveConns * len(ack))
	return res
}

// runServeTraced runs the churn against two daemons, the second time
// recording one client-side span per command. Its passes are longer than
// an untraced run's, so that the first and the last decile of the commands
// differ by the history the daemon has gathered in between.
func runServeTraced(e *env, res *workloadResult, bin string, rounds int) *workloadResult {
	bare, err := servePassRun(e, bin, "bare", rounds)
	if err != nil {
		return res.fail(err)
	}
	tr := e.newTracer()
	root := tr.begin(0, e.name, "bench")
	p, err := servePassRun(e, bin, "traced", rounds)
	tr.finish(root)
	if err != nil {
		return res.fail(err)
	}
	ackMS, _, rejected := p.tally(res)

	// The spans are built from the send and reply times each command
	// carries. The connections run at once, so each is a child of the
	// root and its commands are its children.
	for k, cr := range p.results[:serveConns] {
		first, last := cr.replies[0], cr.replies[len(cr.replies)-1]
		conn := tr.interval(root, fmt.Sprintf("serve.conn%d", k), "serve",
			tr.at(first.sent), tr.at(last.sent.Add(last.took)), 1)
		for _, rp := range cr.replies {
			tr.interval(conn, "serve.command", "serve", tr.at(rp.sent), tr.at(rp.sent.Add(rp.took)), 1)
		}
	}
	tr.finishTrace(e, res)

	missing, ok := p.check(res, true)
	if !ok {
		return res
	}

	// Deciles of one connection's commands, in send order.
	one := durationsMS(replyTimes(p.results[0].replies))
	tenth := len(one) / 10
	if tenth < 1 {
		tenth = 1
	}
	applyUS := journaledApplyUS(e)
	res.set("serve.ack_p99_ms", percentile(ackMS, 99))
	res.set("serve.ack_max_ms", percentile(ackMS, 100))
	res.set("serve.ack_p99_first_ms", percentile(one[:tenth], 99))
	res.set("serve.ack_p99_last_ms", percentile(one[len(one)-tenth:], 99))
	res.set("ctlplane.apply_journal_p50_us", applyUS)
	res.set("serve.chunk_wait_ms", median(ackMS)-applyUS/1e3)
	res.set("serve.sim_cycles_per_s", stampRate(p.results))
	res.set("serve.rejected_expected", float64(rejected))
	res.set("serve.acked_missing", float64(missing))
	res.set("serve.connect_ms", millis(p.d.connect))
	res.set("serve.daemon_rss_mb", p.d.peakMB)
	res.set("trace.overhead_share", seconds(p.wall)/seconds(bare.wall)-1)
	res.Counts["commands"] = fmt.Sprint(len(ackMS))
	return res
}

func replyTimes(rs []reply) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.took
	}
	return out
}

// journaledApplyUS is the median Plane.Apply of an add or a remove on an
// idle radix-8 plane journaling into the work dir: what one acknowledged
// command costs without the TCP edge and the wait for the daemon's chunk.
func journaledApplyUS(e *env) float64 {
	path := filepath.Join(e.workdir, "apply-kernel.journal")
	jr, err := ctlplane.CreateJournal(path)
	if err != nil {
		return 0
	}
	p, err := ctlplane.New(ctlplane.SimConfig{Radix: serveRadix, Seed: e.seed})
	if err != nil {
		jr.Close()
		return 0
	}
	if err := p.AttachJournal(jr, true); err != nil {
		p.CloseJournal()
		return 0
	}
	defer p.CloseJournal()
	var us []float64
	for i := 0; i < 100; i++ {
		add := ctlplane.Command{Op: ctlplane.OpAdd, Flow: &ctlplane.FlowReq{
			Src: i % serveRadix, Dst: (i + 3) % serveRadix, Class: noc.GuaranteedBandwidth, Rate: 0.05, PacketLen: 4}}
		t0 := time.Now()
		r := p.Apply(add)
		us = append(us, float64(time.Since(t0))/1e3)
		if !r.OK {
			return 0
		}
		t0 = time.Now()
		r = p.Apply(ctlplane.Command{Op: ctlplane.OpRemove, ID: r.ID})
		us = append(us, float64(time.Since(t0))/1e3)
		if !r.OK {
			return 0
		}
	}
	return median(us)
}
