// Package durabilitybad is a lint fixture for the durability analyzer:
// a miniature control plane (Result / leaseHeap matched by the same
// names as internal/ctlplane) mixing acknowledgements written outside
// the single acknowledgement site and goroutine-ownership violations
// with the sanctioned shapes.
package durabilitybad

// Result stands in for the command reply; OK: true is the
// acknowledgement only acknowledge may write.
type Result struct {
	OK bool
	ID uint64
}

// reply has an OK field too, but is not a Result.
type reply struct {
	OK bool
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
	leases  leaseHeap
	seq     uint64
	durable bool
}

// acknowledge is the one site that turns results OK, in any spelling.
func (p *Plane) acknowledge(out []Result, pending []int) []Result {
	if !p.durable {
		return out
	}
	for _, i := range pending {
		out[i].OK = true
	}
	return append(out, Result{OK: true}, Result{true, p.seq})
}

// ApplyGood stages results with OK false, in every spelling, and leaves
// the acknowledgement to acknowledge.
func (p *Plane) ApplyGood(n int, out []Result) []Result {
	const refused = false
	var pending []int
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			out = append(out, Result{OK: false}, Result{false, 0}, Result{OK: refused})
			continue
		}
		pending = append(pending, len(out))
		out = append(out, Result{ID: p.seq})
		out[len(out)-1].OK = false
	}
	return p.acknowledge(out, pending)
}

// Count reads acknowledgements, which is not writing one.
func Count(out []Result) (n int) {
	for _, r := range out {
		if r.OK {
			n++
		}
	}
	_ = reply{OK: true}
	return n
}

// always is an acknowledgement built before any command ran.
var always = Result{OK: true} // want:durability

// AckLiteral acknowledges with a keyed literal.
func (p *Plane) AckLiteral() Result {
	return Result{OK: true} // want:durability
}

// AckPositional acknowledges with an unkeyed literal.
func (p *Plane) AckPositional() Result {
	return Result{true, p.seq} // want:durability
}

// AckElided acknowledges inside slice literals that elide the type.
func (p *Plane) AckElided(ok bool) ([]Result, []*Result) {
	return []Result{{OK: ok}}, []*Result{{true, 0}} // want:durability durability
}

// AckStore turns a staged result OK after the loop, as ApplyAll once did.
func (p *Plane) AckStore(out []Result) {
	for i := range out {
		out[i].OK = true // want:durability
	}
}

// AckCopy stores a computed value, and through a pointer, and as one of
// a tuple.
func (p *Plane) AckCopy(r *Result, ok bool) {
	r.OK = ok                 // want:durability
	r.OK, p.seq = true, p.seq // want:durability
	(*r).OK = !false          // want:durability
}

// AckUnpacked stores one result of a call.
func (p *Plane) AckUnpacked(r *Result) {
	r.OK, p.seq = p.probe() // want:durability
}

func (p *Plane) probe() (bool, uint64) { return p.durable, p.seq }

// AckAddress hands the field out to be written elsewhere.
func (p *Plane) AckAddress(r *Result) *bool {
	return &r.OK // want:durability
}

// AckClosure writes an acknowledgement inside a closure.
func (p *Plane) AckClosure(out []Result) func() {
	return func() { out[0] = Result{OK: p.durable} } // want:durability
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
func (p *Plane) Serve(n int) []Result { return p.ApplyGood(n, nil) }

// SpawnBad hands single-owner state to goroutines.
func (p *Plane) SpawnBad(e leaseEntry) {
	go func() { // want:durability
		p.leases.push(e)
	}()
	go p.Expire(e.at) // want:durability
	go p.Serve(1)     // want:durability
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
type server interface{ Serve(n int) []Result }

// SpawnIndirect reaches the serial-only Serve only through an interface
// method, called inside a closure nested in the spawned literal.
func (p *Plane) SpawnIndirect() {
	var s server = p
	go func() { // want:durability
		run := func() { s.Serve(1) }
		run()
	}()
}
