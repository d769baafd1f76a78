package fabric

import (
	"fmt"
	"slices"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// offersHarness is a fake engine behind an Offers and the reference the
// request matrix is held to. wish is what an input would offer if asked
// now; model is what it stands with, kept the trivial way: an evaluated
// input takes its wish, a withdrawn one nothing. Every change of a wish
// puts a fresh packet behind it, so a request left stale is caught.
type offersHarness struct {
	base, ports []int // per port: its node's port 0 and port count
	wish, model []int // per input: the flat output, -1 for none
	wishReq     []arb.Request
	modelReq    []arb.Request
	marked      []bool
	evals       uint64
	id          uint64
}

// offersLayouts are the node sizes a fuzz input picks from: one port, a
// word's worth, one past it and two words.
var offersLayouts = []int{1, 2, 5, 63, 64, 65, 70, 130}

func newOffersHarness(nodes []int) *offersHarness {
	h := &offersHarness{}
	for _, p := range nodes {
		for k := 0; k < p; k++ {
			h.base = append(h.base, len(h.ports)-k)
			h.ports = append(h.ports, p)
			h.wish = append(h.wish, -1)
			h.model = append(h.model, -1)
		}
	}
	h.wishReq = make([]arb.Request, len(h.ports))
	h.modelReq = make([]arb.Request, len(h.ports))
	h.marked = make([]bool, len(h.ports))
	return h
}

func (h *offersHarness) offer(in int, _ noc.Cycle) (int, arb.Request, bool) {
	return h.wish[in], h.wishReq[in], h.wish[in] >= 0
}

// setWish makes input in name output k of its node (none for k < 0).
func (h *offersHarness) setWish(in, k int, class noc.Class) {
	if k < 0 {
		h.wish[in] = -1
		return
	}
	h.id++
	h.wish[in] = h.base[in] + k%h.ports[in]
	h.wishReq[in] = arb.Request{Input: in - h.base[in], Class: class, Packet: &noc.Packet{ID: h.id}}
}

// wishOf decodes a step's new wish: nothing a quarter of the time, else
// mostly one of a node's first three outputs, so that many inputs share
// an output and its want mask spans words.
func wishOf(sub, hi, lo byte) int {
	switch {
	case sub&3 == 0:
		return -1
	case sub&4 == 0:
		return int(hi^lo) % 3
	}
	return int(hi ^ lo)
}

// check recomputes every want mask, request list and offered bit from the
// model and holds o to them, with the marks and the evaluation count.
func (h *offersHarness) check(o *Offers) string {
	if o.Evals != h.evals {
		return fmt.Sprintf("%d evaluations, the model made %d", o.Evals, h.evals)
	}
	for in := range h.model {
		out, req, ok := o.Standing(in)
		if ok != (h.model[in] >= 0) || ok && (out != h.model[in] || req != h.modelReq[in]) {
			return fmt.Sprintf("input %d stands at %d %+v (%v), the model at %d %+v", in, out, req, ok, h.model[in], h.modelReq[in])
		}
		if arb.MaskHas(o.Dirty(), in) != h.marked[in] {
			return fmt.Sprintf("input %d marked %v, the model %v", in, !h.marked[in], h.marked[in])
		}
	}
	for out, base := range h.base {
		want := make([]uint64, arb.MaskWords(h.ports[out]))
		var reqs []arb.Request
		for in := base; in < base+h.ports[out]; in++ {
			if h.model[in] == out {
				arb.MaskSet(want, in-base)
				reqs = append(reqs, h.modelReq[in])
			}
		}
		if got := o.Want(out); !slices.Equal(got, want) {
			return fmt.Sprintf("output %d wants %#x, the model %#x", out, got, want)
		}
		if got := o.Requests(out, nil); !slices.Equal(got, reqs) {
			return fmt.Sprintf("output %d requests %+v, the model %+v", out, got, reqs)
		}
		if arb.MaskHas(o.Offered(), out) != (len(reqs) > 0) {
			return fmt.Sprintf("output %d offered bit %v with %d requests", out, arb.MaskHas(o.Offered(), out), len(reqs))
		}
	}
	return ""
}

// FuzzOffers drives a request matrix over nodes of random sizes through
// random marks, silent changes of what an input offers (a refresh may
// evaluate inputs nobody marked), refreshes over the marks, a subset of
// them or every port, withdrawals, grants and resets, and recomputes the
// matrix from scratch after every step.
func FuzzOffers(f *testing.F) {
	// Bytes: node count, three node sizes, then (kind, hi, lo) per step.
	// The seeds are long pseudo-random schedules, so that a plain go test
	// runs every operation over every layout.
	for seed := uint64(1); seed <= 16; seed++ {
		b := make([]byte, 4+3*250)
		x := seed
		for i := range b {
			x = x*6364136223846793005 + 1442695040888963407
			b[i] = byte(x >> 56)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		nodes := make([]int, 1+int(b[0])%3)
		for i := range nodes {
			nodes[i] = offersLayouts[int(b[1+i])%len(offersLayouts)]
		}
		h := newOffersHarness(nodes)
		o := NewOffers(nodes, h.offer)
		total := len(h.ports)
		if msg := h.check(o); msg != "" {
			t.Fatalf("fresh: %s", msg)
		}
		ops := b[4:]
		if len(ops) > 3*300 {
			ops = ops[:3*300]
		}
		for s := 0; s+3 <= len(ops); s += 3 {
			kind, hi, lo := ops[s], ops[s+1], ops[s+2]
			sub := kind >> 4
			port := (int(hi)<<8 | int(lo)) % total
			now := noc.Cycle(s / 3)
			var what string
			switch op := kind & 15; {
			case op < 5: // the input's head changes and the engine marks it
				what = "mark"
				h.setWish(port, wishOf(sub, hi, lo), noc.Class(sub>>2%3))
				o.Mark(port)
				h.marked[port] = true
			case op < 7: // the head changes behind the engine's back
				what = "silent change"
				h.setWish(port, wishOf(sub, hi, lo), noc.Class(sub>>2%3))
			case op < 11: // refresh the marks, a subset of them, or every port
				what = "refresh"
				set := o.Dirty()
				if pick := sub % 3; pick > 0 {
					set = make([]uint64, len(o.Dirty()))
					for w := range set {
						r := (uint64(hi)<<56 | uint64(lo)<<8 | uint64(w)) * 0x9E3779B97F4A7C15
						set[w] = o.Dirty()[w] & r
						if pick == 2 {
							set[w] = ^uint64(0)
						}
					}
					if r := total & 63; pick == 2 && r != 0 {
						set[len(set)-1] = 1<<r - 1
					}
				}
				for in := range h.model {
					if arb.MaskHas(set, in) {
						h.evals++
						h.model[in], h.modelReq[in] = h.wish[in], h.wishReq[in]
					}
				}
				o.Refresh(set, now)
				clear(h.marked)
			case op < 12:
				what = "withdraw"
				o.Withdraw(port)
				h.model[port] = -1
			case op < 15: // the next output with requests grants one; the winner turns busy
				what = "grant"
				for k := 0; k < total; k++ {
					if reqs := o.Requests((port+k)%total, nil); len(reqs) > 0 {
						out := (port + k) % total
						in := h.base[out] + reqs[int(sub)%len(reqs)].Input
						o.Withdraw(in)
						h.model[in], h.wish[in] = -1, -1
						break
					}
				}
			default:
				what = "reset"
				o.Reset()
				for in := range h.model {
					h.model[in], h.marked[in] = -1, true
				}
			}
			if msg := h.check(o); msg != "" {
				t.Fatalf("step %d (%s on port %d of %v): %s", s/3, what, port, nodes, msg)
			}
		}
	})
}
