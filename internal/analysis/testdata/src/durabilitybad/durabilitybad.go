// Package durabilitybad is a lint fixture for the durability analyzer:
// a miniature control plane (Journal / Record / Result / leaseHeap
// matched by the same names as internal/ctlplane) mixing ack-before-fsync,
// racing-append, broken-batch and goroutine-ownership violations with the
// sanctioned journal-then-ack shapes.
package durabilitybad

// Record kinds; the analyzer matches a command record by the constant's
// value.
const (
	KindCmd  = "cmd"
	KindSnap = "snap"
)

// Record stands in for a journal record.
type Record struct {
	Kind string
	Seq  uint64
}

// Journal stands in for the append-only journal; the analyzer matches
// the type name and the Append/Sync methods.
type Journal struct {
	n int
}

// Append buffers one record.
func (j *Journal) Append(rec *Record) error {
	j.n++
	return nil
}

// Sync flushes and fsyncs.
func (j *Journal) Sync() error { return nil }

// Result stands in for the command reply; OK: true is the
// acknowledgement the analyzer gates on durability.
type Result struct {
	OK bool
	ID uint64
}

type leaseEntry struct {
	at, id uint64
}

// leaseHeap is single-owner state: only the plane's own goroutine may
// push or pop.
type leaseHeap []leaseEntry

func (h *leaseHeap) push(e leaseEntry) { *h = append(*h, e) }

func (h *leaseHeap) pop() leaseEntry {
	old := *h
	e := old[0]
	*h = old[:len(old)-1]
	return e
}

// Plane stands in for the control plane.
type Plane struct {
	jr     *Journal
	leases leaseHeap
	seq    uint64
}

// ApplyGood is the sanctioned shape: nil-journal fast path, then
// append, then sync, then the acknowledgement.
func (p *Plane) ApplyGood(rec *Record) Result {
	if p.jr == nil {
		return Result{OK: true}
	}
	if err := p.jr.Append(rec); err != nil {
		return Result{}
	}
	if err := p.jr.Sync(); err != nil {
		return Result{}
	}
	return Result{OK: true}
}

// ApplyNoSync acknowledges after the append but before the fsync.
func (p *Plane) ApplyNoSync(rec *Record) Result {
	if p.jr == nil {
		return Result{OK: true}
	}
	if err := p.jr.Append(rec); err != nil {
		return Result{}
	}
	return Result{OK: true} // want:durability
}

// journalCmd makes one record durable and says so with its bool.
func (p *Plane) journalCmd(rec *Record) (Result, bool) {
	if p.jr == nil {
		return Result{}, false
	}
	if err := p.jr.Append(rec); err == nil {
		if err = p.jr.Sync(); err == nil {
			return Result{}, false
		}
	}
	return Result{ID: p.seq}, true
}

// ApplyViaWrapper acknowledges behind a wrapper that does append and
// sync. The proof is per function, so the acknowledgement is flagged:
// the append and the sync belong beside the OK.
func (p *Plane) ApplyViaWrapper(rec *Record) Result {
	if r, bad := p.journalCmd(rec); bad {
		return r
	}
	return Result{OK: true} // want:durability
}

// SyncOnly acknowledges behind a sync that covers no record of its own.
func (p *Plane) SyncOnly() Result {
	if err := p.jr.Sync(); err != nil {
		return Result{}
	}
	return Result{OK: true} // want:durability
}

// ApplyAllGood is the sanctioned batch: every accepted command appends
// its record, one sync covers the run, and only behind it does any
// result turn OK. A failed append or sync leaves without an OK.
func (p *Plane) ApplyAllGood(n int, out []Result) []Result {
	var pending []int
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			out = append(out, Result{}) // rejected: nothing journaled
			continue
		}
		p.seq++
		if p.jr != nil {
			if err := p.jr.Append(&Record{Kind: KindCmd, Seq: p.seq}); err != nil {
				return out
			}
		}
		pending = append(pending, len(out))
		out = append(out, Result{ID: p.seq})
	}
	if p.jr != nil {
		if err := p.jr.Sync(); err != nil {
			return out
		}
	}
	for _, i := range pending {
		out[i].OK = true
	}
	return out
}

// BatchAckInLoop turns each result OK as soon as its record is
// appended, before the sync that would cover it.
func (p *Plane) BatchAckInLoop(n int, out []Result) []Result {
	for i := 0; i < n; i++ {
		if err := p.jr.Append(&Record{Kind: KindCmd}); err != nil {
			return out
		}
		out = append(out, Result{})
		out[i].OK = true // want:durability
	}
	if err := p.jr.Sync(); err != nil {
		return out
	}
	return out
}

// BatchAckLiteral builds the acknowledgement inside the append loop.
func (p *Plane) BatchAckLiteral(n int, out []Result) []Result {
	for i := 0; i < n; i++ {
		if err := p.jr.Append(&Record{Kind: KindCmd}); err != nil {
			return out
		}
		out = append(out, Result{OK: true}) // want:durability
	}
	if err := p.jr.Sync(); err != nil {
		return out[:0]
	}
	return out
}

// BatchSkipsSync leaves through a path that never reaches the sync.
func (p *Plane) BatchSkipsSync(n int, out []Result, hurry bool) []Result {
	for i := 0; i < n; i++ {
		if err := p.jr.Append(&Record{Kind: KindCmd}); err != nil {
			return out
		}
		out = append(out, Result{})
	}
	if hurry {
		return out // want:durability
	}
	if err := p.jr.Sync(); err != nil {
		return out
	}
	for i := range out {
		out[i].OK = true
	}
	return out
}

// BatchSyncDropped never looks at the sync's error: the window stays
// open and nothing behind it is durable.
func (p *Plane) BatchSyncDropped(n int, out []Result) []Result {
	for i := 0; i < n; i++ {
		if err := p.jr.Append(&Record{Kind: KindCmd}); err != nil {
			return out
		}
		out = append(out, Result{})
	}
	p.jr.Sync()
	for i := range out {
		out[i].OK = true // want:durability
	}
	return out // want:durability
}

// BatchAppendUnproven logs a failed append and carries on to the sync:
// the batch is acknowledged on a path where one record was never taken.
func (p *Plane) BatchAppendUnproven(n int, out []Result) []Result {
	for i := 0; i < n; i++ {
		if err := p.jr.Append(&Record{Kind: KindCmd}); err != nil {
			p.seq = 0
		}
		out = append(out, Result{})
	}
	if err := p.jr.Sync(); err != nil {
		return out
	}
	for i := range out {
		out[i].OK = true // want:durability
	}
	return out
}

// BatchSnapshotInside checkpoints in the middle of a batch: the
// snapshot record races the unsynced command records before it, and the
// next iteration's command record races the unsynced snapshot.
func (p *Plane) BatchSnapshotInside(n int, out []Result) []Result {
	for i := 0; i < n; i++ {
		if err := p.jr.Append(&Record{Kind: KindCmd}); err != nil { // want:durability
			return out
		}
		if i == 1 {
			if err := p.jr.Append(&Record{Kind: KindSnap}); err != nil { // want:durability
				return out
			}
		}
		out = append(out, Result{})
	}
	if err := p.jr.Sync(); err != nil {
		return out
	}
	return out
}

// BatchOpaqueRecords appends records built elsewhere: not provably
// command records, so the run is not a batch.
func (p *Plane) BatchOpaqueRecords(recs []*Record) error {
	for _, rec := range recs {
		if err := p.jr.Append(rec); err != nil { // want:durability
			return err
		}
	}
	return p.jr.Sync()
}

// SnapshotRace appends a snapshot record while the command record is
// still unsynced.
func (p *Plane) SnapshotRace(cmd, snap *Record) error {
	if err := p.jr.Append(cmd); err != nil {
		return err
	}
	if err := p.jr.Append(snap); err != nil { // want:durability
		return err
	}
	return p.jr.Sync()
}

// LeaveUnsynced returns with the append buffered but not durable.
func (p *Plane) LeaveUnsynced(rec *Record) error {
	if err := p.jr.Append(rec); err != nil {
		return err
	}
	return nil // want:durability
}

// Expire is the single-owner lease walk, fine on the plane's own
// goroutine.
func (p *Plane) Expire(now uint64) {
	for len(p.leases) > 0 && p.leases[0].at <= now {
		p.leases.pop()
	}
}

// Renew pushes a lease entry; also owner-only.
func (p *Plane) Renew(e leaseEntry) { p.leases.push(e) }

// Serve is the plane's command loop.
//
//ssvc:serial-only
func (p *Plane) Serve(rec *Record) Result { return p.ApplyGood(rec) }

// SpawnBad hands single-owner state to goroutines.
func (p *Plane) SpawnBad(e leaseEntry, rec *Record) {
	go func() { // want:durability
		p.leases.push(e)
	}()
	go p.Expire(e.at) // want:durability
	go p.Serve(rec)   // want:durability
}

// SpawnGood runs something harmless off the owner goroutine.
func (p *Plane) SpawnGood() {
	done := make(chan int, 1)
	go func() {
		done <- 1
	}()
	<-done
}

// server is implemented by *Plane; a call through it resolves by
// class-hierarchy analysis.
type server interface{ Serve(rec *Record) Result }

// SpawnIndirect reaches the serial-only Serve only through an interface
// method, called inside a closure nested in the spawned literal.
func (p *Plane) SpawnIndirect(rec *Record) {
	var s server = p
	go func() { // want:durability
		run := func() { s.Serve(rec) }
		run()
	}()
}
