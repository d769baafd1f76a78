package fabric

import (
	"math/bits"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// Offers is an engine's request matrix: every input's standing offer,
// kept as state across cycles instead of asked of every input every
// cycle (DESIGN.md "Event-driven idle skipping"). Ports are flat ids over
// the engine's nodes, node n's after node n-1's, and an id names an input
// and an output at once. Each output's want mask spans its own node's
// inputs, so an arbiter is handed node-local input ids in ascending order.
//
// An offer is re-derived only for inputs the engine marked, and only when
// the engine asks (Refresh). When that is in the cycle, and which marked
// inputs are evaluated, are the engine's choices: Offers knows nothing of
// faults, busy inputs or backoffs.
type Offers struct {
	// Evals counts the offers re-derived: a diagnostic of the host's work,
	// in no counter block or digest.
	Evals uint64

	offer   func(in int, now noc.Cycle) (out int, req arb.Request, ok bool)
	to      []int32       // per input: the output its offer stands at, -1 for none
	req     []arb.Request // per input: its standing request
	base    []int32       // per port: the flat id of its node's port 0
	wantAt  []int32       // output f's want mask is want[wantAt[f]:wantAt[f+1]]
	want    []uint64
	offered []uint64 // outputs with a nonempty want mask
	dirty   []uint64 // marked inputs: their offer may be stale
}

// NewOffers sizes the request matrix for nodes of the given port counts.
// offer is the engine's one question: what input in offers at cycle now,
// as a flat output and a request whose Input is node-local, or ok false.
func NewOffers(ports []int, offer func(in int, now noc.Cycle) (out int, req arb.Request, ok bool)) *Offers {
	o := &Offers{offer: offer, wantAt: []int32{0}}
	first, words := 0, 0
	for _, p := range ports {
		for k := 0; k < p; k++ {
			o.to = append(o.to, -1)
			o.base = append(o.base, int32(first))
			words += arb.MaskWords(p)
			o.wantAt = append(o.wantAt, int32(words))
		}
		first += p
	}
	o.req = make([]arb.Request, first)
	o.want = make([]uint64, words)
	o.offered = make([]uint64, arb.MaskWords(first))
	o.dirty = make([]uint64, arb.MaskWords(first))
	return o
}

// Mark records that input in's offer may have changed.
//
//ssvc:hotpath
func (o *Offers) Mark(in int) { arb.MaskSet(o.dirty, in) }

// Refresh forgets every mark and re-derives the offer of every input in
// set, whose offer function may mark it again for the next Refresh. set
// is the engine's choice: the marks themselves (Dirty), some of them, or
// more. An offer re-derived at the output it stands at only replaces its
// request; one that moved or vanished is withdrawn.
//
//ssvc:hotpath
func (o *Offers) Refresh(set []uint64, now noc.Cycle) {
	for w, m := range set {
		o.dirty[w] = 0
		for ; m != 0; m &= m - 1 {
			in := w<<6 + bits.TrailingZeros64(m)
			o.Evals++
			out, req, ok := o.offer(in, now)
			if o.to[in] >= 0 && !(ok && int(o.to[in]) == out) {
				o.Withdraw(in)
			}
			if !ok {
				continue
			}
			o.req[in] = req
			if o.to[in] < 0 {
				o.to[in] = int32(out)
				arb.MaskSet(o.Want(out), in-int(o.base[in]))
				arb.MaskSet(o.offered, out)
			}
		}
	}
}

// Withdraw takes input in's offer, if one stands, out of its output's
// want mask.
//
//ssvc:hotpath
func (o *Offers) Withdraw(in int) {
	out := int(o.to[in])
	if out < 0 {
		return
	}
	o.to[in] = -1
	want := o.Want(out)
	arb.MaskClear(want, in-int(o.base[in]))
	if !arb.MaskAny(want) {
		arb.MaskClear(o.offered, out)
	}
}

// Requests appends the requests standing at output out to reqs, in
// ascending input order.
//
//ssvc:hotpath
func (o *Offers) Requests(out int, reqs []arb.Request) []arb.Request {
	base := int(o.base[out])
	for w, m := range o.Want(out) {
		for ; m != 0; m &= m - 1 {
			reqs = append(reqs, o.req[base+w<<6+bits.TrailingZeros64(m)])
		}
	}
	return reqs
}

// Reset withdraws every offer and marks every input, for an engine that
// has rewritten its buffers wholesale. Cold path.
func (o *Offers) Reset() {
	for in := range o.to {
		o.to[in] = -1
		arb.MaskSet(o.dirty, in)
	}
	arb.MaskZero(o.want)
	arb.MaskZero(o.offered)
}

// Standing returns input in's standing offer, or ok false.
func (o *Offers) Standing(in int) (out int, req arb.Request, ok bool) {
	if o.to[in] < 0 {
		return 0, arb.Request{}, false
	}
	return int(o.to[in]), o.req[in], true
}

// Want returns output out's want mask over its node's inputs. Want,
// Offered and Dirty alias internal state: treat them as read-only.
//
//ssvc:hotpath
func (o *Offers) Want(out int) []uint64 { return o.want[o.wantAt[out]:o.wantAt[out+1]] }

// Offered returns the mask of outputs with at least one standing offer.
func (o *Offers) Offered() []uint64 { return o.offered }

// Dirty returns the mask of marked inputs.
func (o *Offers) Dirty() []uint64 { return o.dirty }
