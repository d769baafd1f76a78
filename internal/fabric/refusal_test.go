package fabric

import (
	"fmt"
	"slices"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

const (
	refusalGroups  = 3
	refusalBuffers = 4
	refusalCap     = 8 // flits: two to eight packets, so buffers fill
)

// refusalTwin is one side of the refusal-memory differential: a source
// set admitting into real buffers, which names the buffer that refused a
// head (memo) or never does.
type refusalTwin struct {
	s       *Sources
	seq     traffic.Sequence
	bufs    [refusalBuffers]*Buffer
	bufOf   []int // per flow: the buffer its packets enter
	memo    bool
	held    []heldPkt // popped packets a PushFront may return
	reserve []int     // outstanding reservations, by buffer
	lens    []int     // and their lengths
}

type heldPkt struct {
	buf int
	p   *noc.Packet
}

func newRefusalTwin(memo bool) *refusalTwin {
	r := &refusalTwin{s: NewSources(refusalGroups), memo: memo}
	for k := range r.bufs {
		r.bufs[k] = NewBuffer(refusalCap)
	}
	return r
}

// add attaches the next flow; a packet carries its flow index in Dst.
func (r *refusalTwin) add(kind, group, buf int) {
	i := len(r.bufOf)
	spec := noc.FlowSpec{Src: group, Dst: i, Class: noc.BestEffort, PacketLength: 1 + i%4}
	var g traffic.Generator
	switch kind {
	case 0:
		g = traffic.NewBacklogged(&r.seq, spec, 1+i%3)
	case 1:
		g = traffic.NewBernoulli(&r.seq, spec, 0.5, uint64(7*i+1))
	default:
		g = traffic.NewPeriodic(&r.seq, spec, noc.CycleOf(uint64(2+i%4)), noc.CycleOf(uint64(i%3)))
	}
	r.bufOf = append(r.bufOf, buf)
	r.s.Add(traffic.Flow{Spec: spec, Gen: g}, group)
}

// try admits a head into its flow's buffer if it fits.
func (r *refusalTwin) try(p *noc.Packet) bool {
	b := r.bufs[r.bufOf[p.Dst]]
	if !b.CanAccept(p.Length) {
		if r.memo {
			r.s.Refused(b)
		}
		return false
	}
	b.Push(p)
	return true
}

// checkRefusalSchedule interprets ops as a schedule of generation,
// admission, buffer drains and fills, late adds and retires, and drives
// it through a set with the refusal memory and one without. Both must
// admit the same packets and keep the same rotation at every step; every
// flow the memory names must have a head that does not fit its buffer,
// and the set without it must never name one. It returns how many flows
// the memory held over all steps, and the tries each set made.
func checkRefusalSchedule(t *testing.T, ops []byte) (remembered int, triesOn, triesOff uint64) {
	t.Helper()
	on, off := newRefusalTwin(true), newRefusalTwin(false)
	twins := [2]*refusalTwin{on, off}
	var live []int
	var now noc.Cycle
	for step, b := range ops {
		v := int(b >> 3)
		switch b % 8 {
		case 0:
			for _, r := range twins {
				r.add(v%3, v/3%refusalGroups, v/9%refusalBuffers)
			}
			live = append(live, len(on.bufOf)-1)
		case 1:
			if len(live) == 0 {
				break
			}
			k := v % len(live)
			for _, r := range twins {
				r.s.Retire(live[k])
			}
			live = append(live[:k], live[k+1:]...)
		case 2:
			if a, c := on.s.Generate(now), off.s.Generate(now); a != c {
				t.Fatalf("step %d: generated %d packets with the memory, %d without", step, a, c)
			}
			now++
		case 3:
			g := v % refusalGroups
			pa, pc := on.s.AdmitGroup(g, on.try), off.s.AdmitGroup(g, off.try)
			if (pa == nil) != (pc == nil) || pa != nil && pa.ID != pc.ID {
				t.Fatalf("step %d: group %d admitted %v with the memory, %v without", step, g, pa, pc)
			}
		case 4:
			k := v % refusalBuffers
			for _, r := range twins {
				if p := r.bufs[k].Pop(); p != nil {
					r.held = append(r.held, heldPkt{k, p})
				}
			}
		case 5:
			for _, r := range twins {
				if n := len(r.held); n > 0 {
					h := r.held[n-1]
					r.held = r.held[:n-1]
					r.bufs[h.buf].PushFront(h.p)
				}
			}
		case 6:
			k, length := v/2%refusalBuffers, 1+v/8%4
			for _, r := range twins {
				if v%2 == 0 && r.bufs[k].CanAccept(length) {
					r.bufs[k].Reserve(length)
					r.reserve, r.lens = append(r.reserve, k), append(r.lens, length)
				} else if n := len(r.reserve); v%2 == 1 && n > 0 {
					r.bufs[r.reserve[n-1]].Unreserve(r.lens[n-1])
					r.reserve, r.lens = r.reserve[:n-1], r.lens[:n-1]
				}
			}
		case 7:
			k, parity := v%refusalBuffers, uint64(v/4%2)
			da := on.bufs[k].DropWhere(func(p *noc.Packet) bool { return p.ID%2 == parity }, nil)
			dc := off.bufs[k].DropWhere(func(p *noc.Packet) bool { return p.ID%2 == parity }, nil)
			if da != dc {
				t.Fatalf("step %d: buffer %d dropped %d packets with the memory, %d without", step, k, da, dc)
			}
		}
		for g := 0; g < refusalGroups; g++ {
			if on.s.rr[g] != off.s.rr[g] || !slices.Equal(on.s.groups[g], off.s.groups[g]) || on.s.GroupQueued(g) != off.s.GroupQueued(g) {
				t.Fatalf("step %d: group %d rotation %d over %v (depth %d) with the memory, %d over %v (depth %d) without",
					step, g, on.s.rr[g], on.s.groups[g], on.s.GroupQueued(g), off.s.rr[g], off.s.groups[g], off.s.GroupQueued(g))
			}
		}
		n, msg := hiddenHead(on)
		if msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
		remembered += n
		for i := range off.bufOf {
			if off.s.Waiting(i) != nil {
				t.Fatalf("step %d: flow %d is remembered by a set whose try names no buffer", step, i)
			}
		}
	}
	if on.s.Tries() > off.s.Tries() {
		t.Fatalf("the memory made %d tries, more than the %d made without it", on.s.Tries(), off.s.Tries())
	}
	return remembered, on.s.Tries(), off.s.Tries()
}

// hiddenHead counts the flows the memory remembers and describes the
// first it remembers wrongly: with no head, on a buffer that is not its
// own, or with a head that fits.
func hiddenHead(r *refusalTwin) (n int, msg string) {
	for i := range r.bufOf {
		b := r.s.Waiting(i)
		if b == nil {
			continue
		}
		var p *noc.Packet
		if fq := r.s.Flow(i); fq != nil {
			p = fq.Peek()
		}
		n++
		switch {
		case p == nil:
			return n, fmt.Sprintf("flow %d waits on a buffer with no head", i)
		case b != r.bufs[r.bufOf[i]]:
			return n, fmt.Sprintf("flow %d waits on another flow's buffer", i)
		case b.CanAccept(p.Length):
			return n, fmt.Sprintf("flow %d's %d-flit head fits its buffer (%d flits, %d reserved) and is hidden",
				i, p.Length, b.Flits(), b.Reserved())
		}
	}
	return n, ""
}

// refusalSeed expands a seed into a schedule that starts with a few flows
// and keeps adds and retires rarer than cycles and admissions.
func refusalSeed(seed uint64, n int) []byte {
	rng := traffic.NewRNG(seed)
	ops := []byte{0, 8 * 4, 8 * 10, 8 * 14, 8 * 21}
	for len(ops) < n {
		b := byte(rng.Uint64())
		if b%8 < 2 && rng.Intn(4) != 0 {
			b = b&^7 | byte(2+rng.Intn(2))
		}
		ops = append(ops, b)
	}
	return ops
}

// TestRefusalMemoMatchesPlain runs the differential over seeded
// schedules, which must exercise the memory: flows remembered, and tries
// saved against the set without it.
func TestRefusalMemoMatchesPlain(t *testing.T) {
	var remembered int
	var on, off uint64
	for seed := uint64(1); seed <= 16; seed++ {
		n, a, c := checkRefusalSchedule(t, refusalSeed(seed, 1500))
		remembered, on, off = remembered+n, on+a, off+c
	}
	t.Logf("%d flow-steps remembered; %d tries with the memory, %d without", remembered, on, off)
	if remembered == 0 || on >= off {
		t.Fatalf("schedules lost coverage: %d flow-steps remembered, %d tries with the memory, %d without", remembered, on, off)
	}
}

// FuzzRefusalMemo lets the fuzzer search the schedule space of
// TestRefusalMemoMatchesPlain for one on which the refusal memory changes
// what a source set admits, or hides a head that fits.
func FuzzRefusalMemo(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(refusalSeed(seed, 1500))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkRefusalSchedule(t, ops)
	})
}
