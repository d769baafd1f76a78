package ctlplane

import (
	"math/big"
	"testing"

	"swizzleqos/internal/alloc"
	"swizzleqos/internal/noc"
)

// pvtRadix and pvtOut shape FuzzPlanVsTable's flow sets: up to seven GB
// flows, one per input, all at output 0.
const (
	pvtRadix = 8
	pvtOut   = 0
)

// pvtFlows decodes two bytes a flow: a rate in 64ths of the channel and
// a packet length of 1 to 16 flits.
func pvtFlows(data []byte) []noc.FlowSpec {
	var flows []noc.FlowSpec
	for i := 0; i+2 <= len(data) && len(flows) < pvtRadix-1; i += 2 {
		flows = append(flows, noc.FlowSpec{
			Src: len(flows) + 1, Dst: pvtOut, Class: noc.GuaranteedBandwidth,
			Rate: float64(data[i]%64+1) / 64, PacketLength: int(data[i+1]%16) + 1,
		})
	}
	return flows
}

// pvtPlan runs the design-time planner with Vtick registers wide enough
// (16 bits for Vticks of at most 1024) that it never coarsens its tick.
func pvtPlan(t *testing.T, flows []noc.FlowSpec) (*alloc.OutputPlan, bool) {
	plan, err := alloc.Build(alloc.Requirements{Radix: pvtRadix, BusWidthBits: 128, VtickBits: 16, GB: flows})
	if err != nil {
		return nil, false
	}
	out := plan.Outputs[pvtOut]
	if out.Granularity != 1 {
		t.Fatalf("alloc coarsened its tick to %d cycles", out.Granularity)
	}
	return out, true
}

// FuzzPlanVsTable sends one GB flow set at one output through the
// design-time planner (alloc.Build) and through live admission (one
// Table.Admit a flow, the whole channel as budget) and holds them to the
// rules DESIGN.md ("Control plane") writes down:
//
//  1. Vtick. The table programs round(L/rate), alloc floor(L/rate): for
//     every flow the table's Vtick is alloc's or one more.
//  2. Verdict. Both admit the set or both refuse it, except that
//     (a) the table admits a set alloc refuses only when some flow's
//     table Vtick is alloc's plus one, so that the table entitles it
//     less than its rate; and
//     (b) alloc admits a set the table refuses only when the exact
//     entitlements L/Vtick at the table's Vticks fit the channel, and
//     the table's costs, each rounded up to a whole Frame unit, do not.
func FuzzPlanVsTable(f *testing.F) {
	f.Add([]byte{38, 3, 25, 3})                    // 0.61 at L=4 rounds up: (a)
	f.Add([]byte{20, 0, 20, 0, 20, 0})             // 21/64 thrice at L=1, Vtick 3: (b)
	f.Add([]byte{15, 7, 31, 15, 7, 3})             // fits both ways
	f.Add([]byte{63, 0, 0, 0})                     // over the channel both ways
	f.Add([]byte{11, 1, 22, 5, 9, 9, 40, 2, 1, 1}) // five flows
	f.Fuzz(func(t *testing.T, data []byte) {
		flows := pvtFlows(data)
		if len(flows) == 0 {
			return
		}
		tab, err := NewTable(TableConfig{Radix: pvtRadix, LMax: 16, GLBufferFlits: 16, GBShare: 1})
		if err != nil {
			t.Fatal(err)
		}
		tableOK := true
		roundedUp := false
		exact := new(big.Rat) // sum of L/Vtick at the table's Vticks
		for _, fs := range flows {
			one, ok := pvtPlan(t, []noc.FlowSpec{fs})
			if !ok {
				t.Fatalf("%+v: alloc refused a single flow", fs)
			}
			av, tv := one.Vticks[fs.Src], fs.Vtick().Uint()
			if tv != av && tv != av+1 {
				t.Fatalf("%+v: table Vtick %d, alloc's %d", fs, tv, av)
			}
			roundedUp = roundedUp || tv == av+1
			exact.Add(exact, big.NewRat(int64(fs.PacketLength), int64(tv)))
			req := FlowReq{Src: fs.Src, Dst: fs.Dst, Class: fs.Class, Rate: fs.Rate, PacketLen: fs.PacketLength}
			if _, rej := tab.Admit(req, 0, 0); rej != nil {
				if rej.Reason != ReasonGBBudget {
					t.Fatalf("%+v: refused for %s: %s", fs, rej.Reason, rej.Msg)
				}
				tableOK = false
			}
		}
		plan, allocOK := pvtPlan(t, flows)
		switch {
		case tableOK && allocOK:
			vt := tab.Vticks(pvtOut, make([]noc.VTime, pvtRadix))
			for _, fs := range flows {
				if vt[fs.Src].Uint() != fs.Vtick().Uint() {
					t.Fatalf("%+v: table programs Vtick %d, not its own round(L/rate) %d", fs, vt[fs.Src].Uint(), fs.Vtick().Uint())
				}
				if plan.Vticks[fs.Src] != uint64(fs.PacketLength)*64/uint64(fs.Rate*64) {
					t.Fatalf("%+v: alloc programs Vtick %d in a set, not floor(L/rate)", fs, plan.Vticks[fs.Src])
				}
			}
		case tableOK && !allocOK:
			if !roundedUp {
				t.Fatalf("%v: the table admits a set alloc refuses at the same Vticks", flows)
			}
		case !tableOK && allocOK:
			if exact.Cmp(big.NewRat(1, 1)) > 0 {
				t.Fatalf("%v: alloc admits a set whose exact entitlement %s at the table's Vticks exceeds the channel", flows, exact.FloatString(6))
			}
		}
	})
}
