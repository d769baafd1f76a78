// Command ssvc-serve runs a crossbar simulation under reservation
// control: a continuously advancing switch whose GB/GL reservations are
// added, resized, and removed live — every mutation passing admission
// control and landing in a crash-safe journal before it is acknowledged
// (see internal/ctlplane and DESIGN.md "Control plane").
//
// Usage:
//
//	ssvc-serve -journal FILE [-script FILE] [-total N] [-listen ADDR]
//	           [-trace FILE] [-pace N] [-radix N] [-seed N] [-snap-every N]
//	           [-gb-share F] [-gl-share F] [-degrade] [-lmax N]
//	           [-fail SPEC]
//	ssvc-serve -replay FILE [-trace FILE]
//
// Serve mode advances the simulation -total cycles, applying commands
// from the -script file (`@<cycle> <command>` lines) at their stamped
// cycles and, when -listen is given, accepting the same line protocol
// over TCP: one command per line of at most 4 KiB, one result line back,
// at most 256 connections at a time (a longer line or a further
// connection is answered with a typed `err` line and closed). A
// connection that sends no line for two minutes is answered `err
// reason=idle` and closed, and one that takes no reply for as long is
// closed, so a silent client cannot hold a slot for good. The loop
// looks at the network every 128 simulated cycles; everything waiting
// then is one batch — applied in arrival order at that cycle, journaled
// record by record, made durable by one fsync, and only then
// acknowledged (DESIGN.md "Commit path"). SIGTERM or SIGINT stops the
// daemon cleanly: it stops accepting, applies what is waiting as a last
// batch, writes the end record and exits 0; commands arriving later are
// answered `frozen`.
//
// If the journal file already holds records, the daemon recovers: it
// restores the newest snapshot in the journal and re-executes only what
// lies behind it (at most -snap-every cycles, verifying every later
// snapshot), truncates any torn tail with a warning, skips script entries
// already journaled, and continues — the configuration flags are ignored
// in favour of the journal header, so a killed daemon restarted with the
// same arguments finishes the identical run. With -trace the trace file
// is written anew and needs every delivery since cycle 0, so that one path
// re-executes the whole journal from its header instead, as -replay does.
// Either way the daemon says what it did: the snapshot's cycle and the
// cycles re-executed.
//
// -pace throttles wall-clock speed to N simulated cycles per millisecond
// (0 = as fast as possible) so a kill can land mid-run; pacing is pure
// wall-clock mechanism and never changes results.
//
// -fail injects fail-stop faults: comma-separated in<port>@<cycle> or
// out<port>@<cycle> specs, e.g. -fail in3@5000,out1@9000.
//
// Replay mode re-executes a journal and prints the recovered state;
// with -trace it also writes the re-derived delivery trace. Replaying
// the journal of a completed run must reproduce the identical trace and
// counters, byte for byte.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"swizzleqos/internal/ctlplane"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
)

func main() {
	// The first SIGTERM or SIGINT asks for a clean stop; a second one
	// falls through to the default action and kills the process.
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sig
		signal.Stop(sig)
		close(stop)
	}()
	os.Exit(serveMain(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// netCmd is one command arriving over the TCP listener.
type netCmd struct {
	cmd   ctlplane.Command
	reply chan ctlplane.Result
}

// serveMain is the testable entry point. Closing stop ends serve mode
// cleanly before -total is reached.
func serveMain(args []string, stdout, stderr io.Writer, stop <-chan struct{}) (code int) {
	fs := flag.NewFlagSet("ssvc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		journal = fs.String("journal", "", "journal file (serve mode; created if missing, recovered if not)")
		script  = fs.String("script", "", "command script: @<cycle> <command> per line")
		total   = fs.Uint64("total", 100000, "cycles to run before a clean shutdown")
		listen  = fs.String("listen", "", "optional TCP address for live line-protocol commands")
		trace   = fs.String("trace", "", "write the delivery trace (JSONL) to this file; recovery then re-executes the journal from its header to regenerate it, not from the last snapshot")
		pace    = fs.Uint64("pace", 0, "throttle to N simulated cycles per wall millisecond (0 = unthrottled)")
		replay  = fs.String("replay", "", "replay mode: re-execute this journal and exit")

		radix     = fs.Int("radix", 8, "switch radix")
		seed      = fs.Uint64("seed", 1, "workload RNG seed")
		snapEvery = fs.Uint64("snap-every", 10000, "snapshot cadence in cycles (0 = none)")
		gbShare   = fs.Float64("gb-share", 0.85, "initial per-output GB budget share")
		glShare   = fs.Float64("gl-share", 0.05, "per-output GL bandwidth share")
		degrade   = fs.Bool("degrade", false, "start with the degrade budget-shrink policy (default reject)")
		lmax      = fs.Int("lmax", 8, "maximum admissible packet length, flits")
		failSpec  = fs.String("fail", "", "fail-stop schedule: in<port>@<cycle> or out<port>@<cycle>, comma separated")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var tw *traceWriter
	if *trace != "" {
		var err error
		tw, err = newTraceWriter(*trace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// A trace that could not be written whole fails the run: a full
		// disk must not leave a truncated trace behind an exit status 0.
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintln(stderr, "ssvc-serve: write trace:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	var ro ctlplane.ReplayOptions
	if tw != nil {
		ro.OnDeliver = tw.OnDeliver
	}

	if *replay != "" {
		return replayMain(*replay, ro, stdout, stderr)
	}
	if *journal == "" {
		fmt.Fprintln(stderr, "ssvc-serve: -journal is required (or -replay)")
		return 2
	}

	fcfg, err := parseFailSpec(*failSpec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := ctlplane.SimConfig{
		Radix:     *radix,
		LMax:      *lmax,
		GBShare:   *gbShare,
		GLShare:   *glShare,
		Degrade:   *degrade,
		Seed:      *seed,
		SnapEvery: noc.CycleOf(*snapEvery),
		Faults:    fcfg,
	}

	// Recover or start fresh. Recovery restores the newest snapshot and
	// re-executes the journal behind it. A trace file is the exception: it
	// is regenerated whole, so the re-executed prefix must be every
	// delivery since the header, and the full trace of an
	// interrupted-and-resumed run is byte-identical to an uninterrupted one.
	recoverFile := ctlplane.RecoverFile
	if tw != nil {
		recoverFile = recoverFromHeader
	}
	p, warn, err := recoverFile(*journal, ro)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if warn != "" {
		fmt.Fprintf(stderr, "ssvc-serve: %s\n", warn)
	}
	done := map[string]bool{}
	if p != nil {
		if *script != "" {
			for _, tag := range journaledTags(*journal, p.Now()) {
				done[tag] = true
			}
		}
		rec := p.Recovered()
		fmt.Fprintf(stdout, "recovered journal %s at cycle %d (%d reservations; snapshot at cycle %d, %d cycles re-executed)\n",
			*journal, p.Now().Uint(), p.Table().Len(), rec.Snapshot.Uint(), rec.Reexecuted.Uint())
	} else {
		jr, err := ctlplane.CreateJournal(*journal)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if p, err = ctlplane.New(cfg); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if tw != nil {
			p.OnDeliver(tw.OnDeliver)
		}
		if err := p.AttachJournal(jr, true); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	defer p.CloseJournal()

	var sched []ctlplane.Scheduled
	if *script != "" {
		text, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if sched, err = ctlplane.ParseScript(string(text)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	var srv *server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
		srv = newServer(ln)
	}

	loopErr := serveLoop(p, sched, done, srv, noc.CycleOf(*total), *pace, stop, stdout)
	if srv != nil {
		// Stop accepting, apply what is already waiting as a last batch,
		// and from then on answer with a rejection so no TCP client
		// blocks forever on a reply that will never come.
		srv.ln.Close()
		srv.drain(p)
		defer srv.refuseUntilClosed(p.Now())()
	}
	if loopErr != nil {
		fmt.Fprintln(stderr, loopErr)
		return 1
	}
	if err := p.Finish(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	records, syncs := p.JournalCounts()
	fmt.Fprintf(stdout, "journal records=%d syncs=%d\n", records, syncs)
	printSummary(p, stdout)
	return 0
}

// chunk is how many cycles serveLoop simulates between two looks at the
// network and the stop signal, so the most a waiting command waits for
// the simulation. Plane.Advance on a loaded radix-8 plane costs 211,
// 200 and 194 ns per cycle in steps of 4096, 512 and 128 cycles, and
// 250 and 228 ns in steps of 32 and 8: down to 128 the per-call cost is
// below the noise, and 128 cycles are about 25 us against the 220 us of
// the fsync every batch pays, so a shorter chunk has nothing left to buy.
const chunk = 128

// serveLoop drives the plane to the total cycle, or until stop closes,
// interleaving scripted and networked commands. Scripted commands apply
// at exactly their stamped cycles (skipping those a recovered journal
// already holds), so a resumed run is indistinguishable from an
// uninterrupted one.
func serveLoop(p *ctlplane.Plane, sched []ctlplane.Scheduled, done map[string]bool,
	srv *server, total noc.Cycle, pace uint64, stop <-chan struct{}, stdout io.Writer) error {
	first, start := p.Now(), time.Now()
	for {
		now := p.Now()
		for len(sched) > 0 && sched[0].At <= now {
			s := sched[0]
			sched = sched[1:]
			if done[s.Cmd.Tag] || s.At < now {
				continue // already journaled before the crash, or missed (journal has the truth)
			}
			r := p.Apply(s.Cmd)
			fmt.Fprintf(stdout, "@%d %s: %s\n", now.Uint(), s.Cmd.Op, r)
		}
		if srv != nil {
			srv.drain(p)
		}
		select {
		case <-stop:
			return p.Err()
		default:
		}
		if now >= total {
			return p.Err()
		}
		next := total
		if len(sched) > 0 && sched[0].At < next {
			next = sched[0].At
		}
		step := noc.SatSub(next, now)
		if step > chunk {
			step = chunk
		}
		if err := p.Advance(step); err != nil {
			return err
		}
		if pace > 0 {
			// Pace against the deadline of the cycle reached, not by a
			// sleep per chunk: the rate holds whatever the chunk length.
			us := noc.SatSub(p.Now(), first).Uint() * 1000 / pace
			time.Sleep(time.Until(start.Add(time.Duration(us) * time.Microsecond)))
		}
	}
}

const (
	// maxLine caps a command line, newline included: 20 times the
	// longest legal command.
	maxLine = 4096
	// maxConns caps the open connections, and with them the handler
	// goroutines and the size of a batch (a connection has one command
	// in flight).
	maxConns = 256
	// reasonBusy refuses a connection past maxConns, and reasonIdle closes
	// one that sent no line for ioTimeout. The plane never gives either:
	// they are the daemon's own.
	reasonBusy = "busy"
	reasonIdle = "idle"
)

// ioTimeout bounds how long a connection may hold its slot waiting for
// its next line, or for the peer to take a reply. It is a variable only
// so that tests can shorten it.
var ioTimeout = 2 * time.Minute

// server is the TCP side of the daemon: it funnels the commands of every
// connection into the one goroutine that drives the plane.
type server struct {
	ln   net.Listener
	cmds chan netCmd

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool           // no further connection is taken
	wg     sync.WaitGroup // the accept loop and every connection handler

	// Scratch of drain, used by the plane's goroutine only.
	batch   []ctlplane.Command
	replies []chan ctlplane.Result
	out     []ctlplane.Result
}

// newServer starts accepting connections on ln.
func newServer(ln net.Listener) *server {
	// cmds is unbuffered: a handler hands its command to the drain that
	// will apply it, or to refuseUntilClosed, never to a queue that
	// outlives both.
	s := &server{ln: ln, cmds: make(chan netCmd), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// refuse answers a connection's line with a typed protocol error.
func refuse(conn net.Conn, reason ctlplane.Reason, msg string) error {
	return reply(conn, fmt.Sprintf("err reason=%s msg=%q", reason, msg))
}

// reply writes one line back, giving up if the peer takes none of it for
// ioTimeout.
func reply(conn net.Conn, line string) error {
	conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	_, err := fmt.Fprintf(conn, "%s\n", line)
	return err
}

// acceptLoop hands every accepted connection to its own handler until
// the listener closes; a connection past maxConns is refused.
func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		full := s.closed || len(s.conns) >= maxConns
		if !full {
			s.conns[conn] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if full {
			refuse(conn, reasonBusy, fmt.Sprintf("too many connections (limit %d)", maxConns))
			conn.Close()
			continue
		}
		go s.handle(conn)
	}
}

// handle serves the line protocol on one connection: one command per
// line, one result line back. It closes the connection once the peer has
// sent no line, or taken no reply, for ioTimeout.
func (s *server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 512), maxLine)
	for conn.SetReadDeadline(time.Now().Add(ioTimeout)) == nil && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, err := ctlplane.ParseCommand(line)
		if err != nil {
			err = refuse(conn, ctlplane.ReasonBadRequest, err.Error())
		} else {
			nc := netCmd{cmd: cmd, reply: make(chan ctlplane.Result, 1)}
			s.cmds <- nc
			err = reply(conn, fmt.Sprint(<-nc.reply))
		}
		if err != nil {
			return // the peer takes no replies
		}
	}
	var ne net.Error
	if errors.As(sc.Err(), &ne) && ne.Timeout() {
		refuse(conn, reasonIdle, fmt.Sprintf("no command for %v", ioTimeout))
		return
	}
	if sc.Err() == bufio.ErrTooLong {
		refuse(conn, ctlplane.ReasonBadRequest, "line too long")
		// The rest of the line is still on its way. Closing over unread
		// input resets the connection and can take the reply with it, so
		// finish our side and read the peer out, for a second at most.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		io.Copy(io.Discard, conn)
	}
}

// drain applies every command waiting at this cycle boundary as one
// batch and answers each connection: the batch's one fsync is behind
// every OK it sends.
func (s *server) drain(p *ctlplane.Plane) {
	s.batch, s.replies = s.batch[:0], s.replies[:0]
	for {
		select {
		case c := <-s.cmds:
			s.batch = append(s.batch, c.cmd)
			s.replies = append(s.replies, c.reply)
			continue
		default:
		}
		break
	}
	if len(s.batch) == 0 {
		return
	}
	s.out = p.ApplyAll(s.batch, s.out[:0])
	for i, r := range s.out {
		s.replies[i] <- r
	}
}

// refuseUntilClosed answers the commands that arrive after the last
// batch, each with a frozen rejection instead of silence. The returned
// function ends it: it closes every connection, waits for the handlers
// and the accept loop to finish, and then for the refusals to stop.
func (s *server) refuseUntilClosed(now noc.Cycle) (closeAll func()) {
	refused := make(chan struct{})
	go func() {
		defer close(refused)
		for c := range s.cmds {
			c.reply <- ctlplane.Result{
				Cycle:  now,
				Reason: ctlplane.ReasonFrozen,
				Msg:    "run complete, daemon shutting down",
			}
		}
	}()
	return func() {
		s.mu.Lock()
		s.closed = true
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		close(s.cmds) // every sender has returned
		<-refused
	}
}

// recoverFromHeader is ctlplane.RecoverFile without the snapshots: the
// whole journal re-executed from its header, so ro.OnDeliver sees every
// delivery of the run so far, and the journal attached again.
func recoverFromHeader(path string, ro ctlplane.ReplayOptions) (*ctlplane.Plane, string, error) {
	recs, validEnd, warn, err := ctlplane.ReadJournal(path)
	if err != nil || len(recs) == 0 {
		return nil, warn, err
	}
	p, err := ctlplane.Rebuild(recs, ro)
	if err != nil {
		return nil, warn, err
	}
	return p, warn, p.ResumeJournal(path, validEnd)
}

// replayMain re-executes a journal and prints the recovered state.
func replayMain(path string, ro ctlplane.ReplayOptions, stdout, stderr io.Writer) int {
	recs, _, warn, err := ctlplane.ReadJournal(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if warn != "" {
		fmt.Fprintf(stderr, "ssvc-serve: %s\n", warn)
	}
	p, err := ctlplane.Rebuild(recs, ro)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printSummary(p, stdout)
	return 0
}

// printSummary renders the final control-plane state.
func printSummary(p *ctlplane.Plane, w io.Writer) {
	st := p.Stats()
	c := p.Counters()
	fmt.Fprintf(w, "cycle=%d delivered=%d data-cycles=%d trace=%016x\n",
		p.Now().Uint(), p.Delivered(), c.DataCycles, p.TraceHash())
	fmt.Fprintf(w, "admitted=%d rejected=%d expired=%d revoked=%d active=%d\n",
		st.Admitted, st.RejectedBudget+st.RejectedBound+st.RejectedOther,
		st.Expired, st.Revoked, p.Table().Len())
}

// journaledTags collects the script tags of the command records a
// recovered journal holds at cycle at, the cycle recovery reached, so a
// resumed daemon never re-applies a scripted command. serveLoop skips
// every script entry stamped earlier by its cycle alone, so those records
// are all it needs: journal cycles never decrease, and the walk decodes
// from the last record back to the first one stamped earlier, never the
// history before it.
func journaledTags(path string, at noc.Cycle) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var tags []string
	for end := len(data); end > 0; {
		start := bytes.LastIndexByte(data[:end-1], '\n') + 1
		recs, _, _, err := ctlplane.DecodeJournal(data[start:end])
		end = start
		if err != nil || len(recs) != 1 {
			break
		}
		var cycle noc.Cycle
		switch rec := recs[0]; {
		case rec.Kind == ctlplane.KindCmd && rec.Cmd != nil:
			if cycle = rec.Cmd.Cycle; cycle == at && rec.Cmd.Cmd.Tag != "" {
				tags = append(tags, rec.Cmd.Cmd.Tag)
			}
		case rec.Snap != nil:
			cycle = rec.Snap.Cycle
		}
		if cycle < at {
			break // the header reads as cycle 0
		}
	}
	return tags
}

// parseFailSpec parses -fail: in<port>@<cycle> / out<port>@<cycle>.
func parseFailSpec(spec string) (*faults.Config, error) {
	if spec == "" {
		return nil, nil
	}
	cfg := &faults.Config{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		var input bool
		var rest string
		switch {
		case strings.HasPrefix(part, "in"):
			input, rest = true, part[2:]
		case strings.HasPrefix(part, "out"):
			input, rest = false, part[3:]
		default:
			return nil, fmt.Errorf("ssvc-serve: bad -fail entry %q (want in<port>@<cycle> or out<port>@<cycle>)", part)
		}
		ps, cs, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("ssvc-serve: bad -fail entry %q (missing @<cycle>)", part)
		}
		port, err := strconv.Atoi(ps)
		if err != nil {
			return nil, fmt.Errorf("ssvc-serve: bad -fail port %q", ps)
		}
		at, err := strconv.ParseUint(cs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ssvc-serve: bad -fail cycle %q", cs)
		}
		cfg.FailStops = append(cfg.FailStops, faults.FailStop{Input: input, Port: port, At: noc.CycleOf(at)})
	}
	return cfg, nil
}

// traceWriter streams one JSON line per delivered packet. The trace of
// a run — live, resumed after a kill, or replayed from the journal —
// must be byte-identical.
type traceWriter struct {
	f *os.File
	w *bufio.Writer
}

func newTraceWriter(path string) (*traceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("ssvc-serve: create trace: %w", err)
	}
	return &traceWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (t *traceWriter) OnDeliver(p *noc.Packet) {
	fmt.Fprintf(t.w, `{"id":%d,"src":%d,"dst":%d,"class":%d,"len":%d,"created":%d,"delivered":%d,"retries":%d}`+"\n",
		p.ID, p.Src, p.Dst, p.Class, p.Length, p.CreatedAt.Uint(), p.DeliveredAt.Uint(), p.Retries)
}

// Close flushes and closes the trace file. The buffered writer keeps
// its first write error, and Flush returns it.
func (t *traceWriter) Close() error {
	if err := t.w.Flush(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}
