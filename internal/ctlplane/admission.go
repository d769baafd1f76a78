package ctlplane

import (
	"fmt"
	"math"
	"sort"

	"swizzleqos/internal/ctlplane/admit"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/glbound"
	"swizzleqos/internal/noc"
)

// Frame is the fixed-point denominator for bandwidth accounting: a
// reservation's cost is the number of Frame-ths of an output channel it
// consumes. All admission arithmetic is integer arithmetic on costs, so
// the over-commit invariant (sum of costs <= budget, per output) is
// exact and the fuzz oracle can recompute it from scratch.
const Frame = 1 << 20

// Policy selects what happens to existing reservations when their
// output's budget shrinks under them (a budget command, or fail-stop
// degradation shifting the schedulable set).
type Policy uint8

const (
	// PolicyDegrade keeps every reservation and scales granted rates
	// proportionally to fit the new budget (the paper's graceful
	// degradation, PR 3's SetVticks machinery). On an input fail-stop
	// the freed bandwidth is redistributed to the survivors.
	PolicyDegrade Policy = iota
	// PolicyReject keeps granted == admitted always: a budget shrink
	// revokes the newest reservations until the rest fit, and freed
	// fail-stop bandwidth returns to best effort.
	PolicyReject
)

// String names the policy as the line protocol spells it.
func (p Policy) String() string {
	if p == PolicyReject {
		return "reject"
	}
	return "degrade"
}

// Reservation is one admitted flow. Cost is the admitted (requested)
// rate in Frame units; GrantedCost is the currently granted rate, which
// tracks Cost except under PolicyDegrade after a budget shrink (scaled
// down) or an input fail-stop (survivors scaled up). GrantedCost 0
// means the reservation is fully degraded: its traffic is demoted to
// best-effort priority (SSVC Vtick 0) until budget returns.
type Reservation struct {
	ID          uint64    `json:"id"`
	Req         FlowReq   `json:"req"`
	Cost        uint64    `json:"cost"`
	GrantedCost uint64    `json:"granted"`
	ExpiresAt   noc.Cycle `json:"expiresAt,omitempty"` // 0 = no lease
}

// GrantedVtick returns the SSVC virtual-clock increment implied by the
// granted rate: the inter-packet time of PacketLen-flit packets at that
// rate, rounded up so the arbiter never over-serves the grant. Zero
// (fully degraded) demotes the crosspoint to best-effort priority.
// Every reservation a Table holds passed admit.Check (on admission, or
// in restore), so PacketLen <= admit.MaxPacketLen and the product fits
// in 41 bits; the checked product stands guard for a Reservation built
// by hand, saturating instead of wrapping.
func (r *Reservation) GrantedVtick() noc.VTime {
	if r.GrantedCost == 0 {
		return 0
	}
	num := noc.SatMul(Frame, uint64(r.Req.PacketLen))
	return noc.VTimeOf(noc.CeilDiv(num, r.GrantedCost)) // never over-serve the grant
}

// costOf returns the Frame-unit channel share a checked request
// consumes, derived from its Vtick: a PacketLen-flit packet every Vtick
// cycles. Deriving the cost from the (rounded) Vtick rather than the raw
// rate makes "sum of admitted Vticks fits the frame" the literal
// invariant. The zero Req has rate 0, hence Vtick 0, and costs nothing.
// Frame and the checked length are both 32-bit values, so Frame·L
// cannot wrap (noc.Mul32), and neither can the round-up (noc.CeilDiv).
func costOf(req admit.Req) uint64 {
	vt := req.Flow().Spec().Vtick().Uint()
	if vt == 0 {
		return 0
	}
	return noc.CeilDiv(noc.Mul32(Frame, req.PacketLen()), vt) // cover the full Vtick
}

// Reject describes a refused command.
type Reject struct {
	Reason     Reason
	RetryAfter noc.Cycle
	Msg        string
}

func reject(reason Reason, format string, args ...any) *Reject {
	return &Reject{Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// TableConfig sizes an admission table; Validate bounds every field.
type TableConfig struct {
	Radix int
	// LMax is the largest packet length admissible anywhere in the
	// network, in flits — the lmax of the Eq. 1-3 analysis.
	LMax int
	// GLBufferFlits is the per-input GL buffer depth b of Eq. 1.
	GLBufferFlits int
	// GBShare and GLShare are the per-output budget fractions for the
	// two reserving classes (GB per-output budgets can be moved later
	// with budget commands; the GL share is fixed at construction
	// because SSVC GL policing is configured once).
	GBShare float64
	GLShare float64
	Policy  Policy
}

// Validate reports a descriptive error for malformed configurations:
// a config that passed here is safe input for the Frame-scaled budget
// arithmetic and the Eq. 1-3 parameters.
func (tc TableConfig) Validate() error {
	if tc.Radix < 2 || tc.Radix > 4096 {
		return fmt.Errorf("ctlplane: radix %d must be in [2,4096]", tc.Radix)
	}
	if tc.LMax < 1 || tc.LMax > int(admit.MaxPacketLen) {
		return fmt.Errorf("ctlplane: lmax %d must be in [1,%d]", tc.LMax, admit.MaxPacketLen)
	}
	if tc.GLBufferFlits < 1 || tc.GLBufferFlits > 1<<20 {
		return fmt.Errorf("ctlplane: GL buffer depth %d must be in [1,%d] flits", tc.GLBufferFlits, 1<<20)
	}
	// Accepting form: NaN shares fail every ordered comparison and land
	// in the rejection rather than slipping into the Frame-unit budgets.
	if !(tc.GBShare >= 0 && tc.GLShare >= 0 && tc.GBShare+tc.GLShare <= 1) {
		return fmt.Errorf("ctlplane: shares GB=%g GL=%g must be non-negative and sum to at most 1", tc.GBShare, tc.GLShare)
	}
	return nil
}

// Table is the pure admission-control state machine: no simulation, no
// I/O, fully deterministic — the model-based fuzz drives it directly.
// The Plane owns one and materializes its decisions onto the switch.
type Table struct {
	cfg      TableConfig
	gbBudget []uint64 // per output, Frame units
	glBudget uint64   // per output, Frame units (uniform)
	inDown   []bool
	outDown  []bool
	nextID   uint64

	byID map[uint64]*Reservation
	gb   [][]*Reservation // per output, admission order
	gl   [][]*Reservation
}

// NewTable builds an empty admission table.
func NewTable(tc TableConfig) (*Table, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		cfg:      tc,
		gbBudget: make([]uint64, tc.Radix),
		glBudget: noc.ClampUint64(float64(Frame)*tc.GLShare, Frame),
		inDown:   make([]bool, tc.Radix),
		outDown:  make([]bool, tc.Radix),
		nextID:   1,
		byID:     make(map[uint64]*Reservation),
		gb:       make([][]*Reservation, tc.Radix),
		gl:       make([][]*Reservation, tc.Radix),
	}
	for o := range t.gbBudget {
		t.gbBudget[o] = noc.ClampUint64(float64(Frame)*tc.GBShare, Frame)
	}
	return t, nil
}

// Policy returns the current budget-shrink policy.
func (t *Table) Policy() Policy { return t.cfg.Policy }

// GBBudget returns output o's GB budget in Frame units.
func (t *Table) GBBudget(o int) uint64 { return t.gbBudget[o] }

// GLBudget returns the per-output GL bandwidth budget in Frame units.
func (t *Table) GLBudget() uint64 { return t.glBudget }

// Get returns the active reservation with the given id, or nil.
func (t *Table) Get(id uint64) *Reservation { return t.byID[id] }

// Len returns the number of active reservations.
func (t *Table) Len() int { return len(t.byID) }

// GB returns output o's GB reservations in admission order. The slice
// is shared; callers must not mutate it.
func (t *Table) GB(o int) []*Reservation { return t.gb[o] }

// GL returns output o's GL reservations in admission order.
func (t *Table) GL(o int) []*Reservation { return t.gl[o] }

// validShare reports whether a GB budget share can coexist with the
// fixed GL share; NaN fails the accepting comparison.
func validShare(share, glShare float64) bool {
	return share >= 0 && share+glShare <= 1
}

// expiry returns the cycle at which a lease taken at now ends, or 0 for
// no lease. A lease that would run past the last cycle is refused: its
// end would wrap, expiring the reservation early or, at 0, never.
func expiry(lease, now noc.Cycle) (noc.Cycle, *Reject) {
	if lease == 0 {
		return 0, nil
	}
	if lease > noc.SatSub(noc.CycleOf(math.MaxUint64), now) {
		return 0, reject(ReasonBadRequest, "lease %d from cycle %d passes the last cycle", lease.Uint(), now.Uint())
	}
	return now + lease, nil
}

// retryHint returns the cycles until the earliest lease expiry at
// output o — the soonest a budget rejection could clear — or 0.
func (t *Table) retryHint(o int, now noc.Cycle) noc.Cycle {
	var best noc.Cycle
	for _, set := range [2][]*Reservation{t.gb[o], t.gl[o]} {
		for _, r := range set {
			if r.ExpiresAt != 0 && (best == 0 || r.ExpiresAt < best) {
				best = r.ExpiresAt
			}
		}
	}
	if best == 0 {
		return 0
	}
	return noc.SatSub(best, now)
}

// Admit checks a request against the switch geometry and the budgets
// and, if it fits, records the reservation. lease 0 means no expiry.
func (t *Table) Admit(f FlowReq, lease noc.Cycle, now noc.Cycle) (*Reservation, *Reject) {
	checked, err := admit.Check(f, t.cfg.Radix, t.cfg.LMax)
	if err != nil {
		return nil, reject(ReasonBadRequest, "%v", err)
	}
	expires, rej := expiry(lease, now)
	if rej != nil {
		return nil, rej
	}
	req := checked.Flow()
	if t.inDown[req.Src] || t.outDown[req.Dst] {
		return nil, reject(ReasonPortDown, "port %d->%d has fail-stopped", req.Src, req.Dst)
	}
	set := &t.gb[req.Dst]
	if req.Class == noc.GuaranteedLatency {
		set = &t.gl[req.Dst]
	}
	for _, r := range *set {
		if r.Req.Src == req.Src {
			return nil, reject(ReasonExists, "reservation %d already holds %d->%d/%v", r.ID, req.Src, req.Dst, req.Class)
		}
	}
	cost := costOf(checked)
	if req.Class == noc.GuaranteedBandwidth {
		used := t.gbUsed(req.Dst)
		if noc.SatAdd(used, cost) > t.gbBudget[req.Dst] {
			rej := reject(ReasonGBBudget, "output %d GB budget %d/%d Frame-units used; request needs %d",
				req.Dst, used, t.gbBudget[req.Dst], cost)
			rej.RetryAfter = t.retryHint(req.Dst, now)
			return nil, rej
		}
	} else {
		used := t.glUsed(req.Dst)
		if noc.SatAdd(used, cost) > t.glBudget {
			rej := reject(ReasonGLBudget, "output %d GL share %d/%d Frame-units used; request needs %d",
				req.Dst, used, t.glBudget, cost)
			rej.RetryAfter = t.retryHint(req.Dst, now)
			return nil, rej
		}
		if rej := t.glCheck(req.Dst, &checked); rej != nil {
			rej.RetryAfter = t.retryHint(req.Dst, now)
			return nil, rej
		}
	}
	res := &Reservation{ID: t.nextID, Req: req, Cost: cost, GrantedCost: cost, ExpiresAt: expires}
	t.nextID++
	*set = append(*set, res)
	t.byID[res.ID] = res
	if req.Class == noc.GuaranteedBandwidth {
		t.renormalize(req.Dst)
	}
	return res, nil
}

// Remove revokes a reservation by id (client remove and deterministic
// lease expiry share this path).
func (t *Table) Remove(id uint64, now noc.Cycle) (*Reservation, *Reject) {
	res, ok := t.byID[id]
	if !ok {
		return nil, reject(ReasonNotFound, "no reservation %d", id)
	}
	t.drop(res)
	if res.Req.Class == noc.GuaranteedBandwidth {
		t.renormalize(res.Req.Dst)
	}
	return res, nil
}

// drop unlinks a reservation from the table without renormalizing.
func (t *Table) drop(res *Reservation) {
	delete(t.byID, res.ID)
	set := &t.gb[res.Req.Dst]
	if res.Req.Class == noc.GuaranteedLatency {
		set = &t.gl[res.Req.Dst]
	}
	for i, r := range *set {
		if r.ID == res.ID {
			*set = append((*set)[:i], (*set)[i+1:]...)
			break
		}
	}
}

// Resize changes a reservation's rate (rate > 0) and/or lease
// (setLease; lease 0 clears). The new rate passes admit.Check and the
// output's GB or GL budget, as an add does. It needs no GL-bound
// re-check: glCheck reads a GL flow's latency, burst and packet length,
// never its rate, and a resize changes none of them.
func (t *Table) Resize(id uint64, rate float64, lease noc.Cycle, setLease bool, now noc.Cycle) (*Reservation, *Reject) {
	res, ok := t.byID[id]
	if !ok {
		return nil, reject(ReasonNotFound, "no reservation %d", id)
	}
	newReq, newCost := res.Req, res.Cost
	if rate != 0 {
		// The request is re-checked at its new rate: a NaN rate is
		// rejected, not resized to.
		newReq.Rate = rate
		checked, err := admit.Check(newReq, t.cfg.Radix, t.cfg.LMax)
		if err != nil {
			return nil, reject(ReasonBadRequest, "%v", err)
		}
		newCost = costOf(checked)
		if res.Req.Class == noc.GuaranteedBandwidth {
			used := noc.SatAdd(noc.SatSub(t.gbUsed(res.Req.Dst), res.Cost), newCost)
			if used > t.gbBudget[res.Req.Dst] {
				rej := reject(ReasonGBBudget, "output %d GB budget %d Frame-units cannot fit resize to %d",
					res.Req.Dst, t.gbBudget[res.Req.Dst], newCost)
				rej.RetryAfter = t.retryHint(res.Req.Dst, now)
				return nil, rej
			}
		} else {
			used := noc.SatAdd(noc.SatSub(t.glUsed(res.Req.Dst), res.Cost), newCost)
			if used > t.glBudget {
				rej := reject(ReasonGLBudget, "output %d GL share %d Frame-units cannot fit resize to %d",
					res.Req.Dst, t.glBudget, newCost)
				rej.RetryAfter = t.retryHint(res.Req.Dst, now)
				return nil, rej
			}
		}
	}
	expires := res.ExpiresAt
	if setLease {
		var rej *Reject
		if expires, rej = expiry(lease, now); rej != nil {
			return nil, rej
		}
	}
	if rate != 0 {
		res.Req, res.Cost, res.GrantedCost = newReq, newCost, newCost
	}
	res.ExpiresAt = expires
	if res.Req.Class == noc.GuaranteedBandwidth {
		t.renormalize(res.Req.Dst)
	}
	return res, nil
}

// SetBudget changes output o's GB budget share. If the new budget no
// longer covers the admitted set, PolicyDegrade scales every grant down
// proportionally and PolicyReject revokes newest-first until the rest
// fit; the revoked reservations are returned for the caller to detach.
func (t *Table) SetBudget(o int, share float64, now noc.Cycle) ([]*Reservation, *Reject) {
	if o < 0 || o >= t.cfg.Radix {
		return nil, reject(ReasonBadRequest, "output %d outside radix %d", o, t.cfg.Radix)
	}
	// Accepting form: a NaN share would otherwise pass straight into
	// the float-to-fixed conversion, corrupting the budget.
	if !validShare(share, t.cfg.GLShare) {
		return nil, reject(ReasonBadRequest, "share %g must be in [0,%g] (GL holds %g)", share, 1-t.cfg.GLShare, t.cfg.GLShare)
	}
	t.gbBudget[o] = noc.ClampUint64(float64(Frame)*share, Frame)
	revoked := t.fit(o)
	t.renormalize(o)
	return revoked, nil
}

// SetPolicy switches the shrink policy. Moving to PolicyReject while an
// output is over-committed (degraded) revokes newest-first until every
// output fits again.
func (t *Table) SetPolicy(p Policy) []*Reservation {
	t.cfg.Policy = p
	var revoked []*Reservation
	for o := 0; o < t.cfg.Radix; o++ {
		revoked = append(revoked, t.fit(o)...)
		t.renormalize(o)
	}
	return revoked
}

// fit enforces the PolicyReject invariant at output o: revoke
// newest-first (highest id) until the admitted costs fit the budget.
// Under PolicyDegrade it never revokes.
func (t *Table) fit(o int) []*Reservation {
	if t.cfg.Policy != PolicyReject {
		return nil
	}
	var revoked []*Reservation
	for t.gbUsed(o) > t.gbBudget[o] {
		newest := t.gb[o][0]
		for _, r := range t.gb[o] {
			if r.ID > newest.ID {
				newest = r
			}
		}
		t.drop(newest)
		revoked = append(revoked, newest)
	}
	return revoked
}

// FailStop marks a port dead and revokes every reservation it carried.
// Under PolicyDegrade an input failure's freed bandwidth is
// redistributed to the surviving reservations at each affected output
// (the PR 3 graceful-degradation semantics); a later admission at that
// output claws the bonus back (renormalize).
func (t *Table) FailStop(f faults.FailStop) []*Reservation {
	var revoked []*Reservation
	if f.Input {
		t.inDown[f.Port] = true
		for o := 0; o < t.cfg.Radix; o++ {
			prevGranted := t.gbGranted(o)
			changed := false
			for _, set := range [2][]*Reservation{t.gb[o], t.gl[o]} {
				for _, r := range set {
					if r.Req.Src == f.Port {
						revoked = append(revoked, r)
						changed = true
					}
				}
			}
			if !changed {
				continue
			}
			for _, r := range revoked {
				if t.byID[r.ID] != nil && r.Req.Dst == o {
					t.drop(r)
				}
			}
			if t.cfg.Policy == PolicyDegrade {
				t.fill(o, prevGranted)
			}
		}
		return revoked
	}
	o := f.Port
	t.outDown[o] = true
	revoked = append(revoked, t.gb[o]...)
	revoked = append(revoked, t.gl[o]...)
	for _, r := range revoked {
		t.drop(r)
	}
	return revoked
}

// gbUsed sums the admitted GB costs at output o.
func (t *Table) gbUsed(o int) uint64 {
	var used uint64
	for _, r := range t.gb[o] {
		used += r.Cost
	}
	return used
}

// gbGranted sums the granted GB costs at output o.
func (t *Table) gbGranted(o int) uint64 {
	var used uint64
	for _, r := range t.gb[o] {
		used += r.GrantedCost
	}
	return used
}

// glUsed sums the admitted GL costs at output o.
func (t *Table) glUsed(o int) uint64 {
	var used uint64
	for _, r := range t.gl[o] {
		used += r.Cost
	}
	return used
}

// renormalize recomputes granted costs at output o from the admitted
// costs: granted == admitted when the set fits its budget, and under
// PolicyDegrade a proportional scale-down when it does not (only a
// budget shrink can create that state). Proportional floors guarantee
// the granted sum never exceeds the budget.
func (t *Table) renormalize(o int) {
	used := t.gbUsed(o)
	budget := t.gbBudget[o]
	if used <= budget {
		for _, r := range t.gb[o] {
			r.GrantedCost = r.Cost
		}
		return
	}
	// Over-committed: only reachable under PolicyDegrade (fit revokes
	// first under PolicyReject).
	for _, r := range t.gb[o] {
		r.GrantedCost = r.Cost * budget / used
	}
}

// fill scales output o's surviving GB grants up to the smaller of the
// budget and the pre-failure granted total, proportionally to their
// admitted costs — survivors absorb a failed input's reservation.
func (t *Table) fill(o int, target uint64) {
	if b := t.gbBudget[o]; target > b {
		target = b
	}
	used := t.gbUsed(o)
	if used == 0 || target <= used {
		t.renormalize(o)
		return
	}
	for _, r := range t.gb[o] {
		r.GrantedCost = r.Cost * target / used
	}
}

// Vticks fills vt (length >= radix) with output o's per-input SSVC
// Vticks from the granted GB rates and returns it.
func (t *Table) Vticks(o int, vt []noc.VTime) []noc.VTime {
	vt = vt[:t.cfg.Radix]
	for i := range vt {
		vt[i] = 0
	}
	for _, r := range t.gb[o] {
		vt[r.Req.Src] = r.GrantedVtick()
	}
	return vt
}

// glCheck verifies the Eq. 1-3 guaranteed-latency analysis for output
// o's GL set plus an optional additional request: the Eq. 1 worst-case
// wait must fit every member's constraint, and every member's requested
// burst must fit its Eq. 2-3 budget. Like costOf it takes the extra
// request only as admit.Check returned it; the zero Req has packet
// length 0, which glbound.Params.Validate refuses.
func (t *Table) glCheck(o int, extra *admit.Req) *Reject {
	type member struct {
		latency noc.Cycle
		burst   int
		lmin    int
	}
	members := make([]member, 0, len(t.gl[o])+1)
	for _, r := range t.gl[o] {
		members = append(members, member{r.Req.Latency, r.Req.Burst, r.Req.PacketLen})
	}
	if extra != nil {
		f := extra.Flow()
		members = append(members, member{f.Latency, f.Burst, f.PacketLen})
	}
	if len(members) == 0 {
		return nil
	}
	lmin := members[0].lmin
	for _, m := range members[1:] {
		if m.lmin < lmin {
			lmin = m.lmin
		}
	}
	p := glbound.Params{LMax: t.cfg.LMax, LMin: lmin, NGL: len(members), BufferFlits: t.cfg.GLBufferFlits}
	if err := p.Validate(); err != nil {
		return reject(ReasonBadRequest, "%v", err)
	}
	wait := p.MaxWait()
	lats := make([]float64, len(members))
	for i, m := range members {
		lats[i] = float64(m.latency.Uint())
		if wait > lats[i] {
			return reject(ReasonGLBound, "Eq.1 worst-case wait %.0f cycles exceeds constraint %d (N_GL=%d, b=%d)",
				wait, m.latency.Uint(), p.NGL, p.BufferFlits)
		}
	}
	budgets, err := glbound.BurstSizes(t.cfg.LMax, lats)
	if err != nil {
		return reject(ReasonGLBound, "%v", err)
	}
	// Budgets come back sorted by latency; equal latencies get equal
	// budgets, so ranking the members by latency matches them up.
	sort.Slice(members, func(i, j int) bool { return members[i].latency < members[j].latency })
	for i, m := range members {
		if float64(m.burst) > budgets[i].MaxPackets {
			return reject(ReasonGLBound, "burst %d packets exceeds the Eq.2-3 budget %.2f at latency %d",
				m.burst, budgets[i].MaxPackets, m.latency.Uint())
		}
	}
	return nil
}

// TableState is the serializable admission state, embedded in journal
// snapshots and compared during replay verification.
type TableState struct {
	NextID       uint64        `json:"nextID"`
	Policy       Policy        `json:"policy"`
	GBBudget     []uint64      `json:"gbBudget"`
	InDown       []int         `json:"inDown,omitempty"`
	OutDown      []int         `json:"outDown,omitempty"`
	Reservations []Reservation `json:"reservations"`
}

// State captures the table, reservations sorted by id.
func (t *Table) State() TableState {
	st := TableState{
		NextID:   t.nextID,
		Policy:   t.cfg.Policy,
		GBBudget: append([]uint64(nil), t.gbBudget...),
	}
	for p, down := range t.inDown {
		if down {
			st.InDown = append(st.InDown, p)
		}
	}
	for p, down := range t.outDown {
		if down {
			st.OutDown = append(st.OutDown, p)
		}
	}
	st.Reservations = make([]Reservation, 0, len(t.byID))
	for o := 0; o < t.cfg.Radix; o++ {
		for _, set := range [2][]*Reservation{t.gb[o], t.gl[o]} {
			for _, r := range set {
				st.Reservations = append(st.Reservations, *r)
			}
		}
	}
	sort.Slice(st.Reservations, func(i, j int) bool { return st.Reservations[i].ID < st.Reservations[j].ID })
	return st
}

// restore installs a journaled state into a table NewTable has just
// built. Every index is checked against the radix, every request
// re-checked through admit.Check and re-costed, and the over-commit
// invariant (the granted rates fit each budget) recomputed, so a table
// it accepts is one the commands could have built. Reservations arrive
// sorted by id, which is admission order: ids only grow.
func (t *Table) restore(st TableState) error {
	if st.Policy > PolicyReject {
		return fmt.Errorf("ctlplane: unknown policy %d", st.Policy)
	}
	if len(st.GBBudget) != t.cfg.Radix {
		return fmt.Errorf("ctlplane: %d GB budgets for radix %d", len(st.GBBudget), t.cfg.Radix)
	}
	for o, b := range st.GBBudget {
		if b > Frame {
			return fmt.Errorf("ctlplane: output %d GB budget %d exceeds the frame", o, b)
		}
	}
	for _, side := range [2]struct {
		ports []int
		down  []bool
	}{{st.InDown, t.inDown}, {st.OutDown, t.outDown}} {
		for k, p := range side.ports {
			if p < 0 || p >= t.cfg.Radix || (k > 0 && p <= side.ports[k-1]) {
				return fmt.Errorf("ctlplane: failed ports %v are not ascending ports of radix %d", side.ports, t.cfg.Radix)
			}
			side.down[p] = true
		}
	}
	t.cfg.Policy = st.Policy
	copy(t.gbBudget, st.GBBudget)
	t.nextID = st.NextID
	var last uint64
	for i := range st.Reservations {
		res := st.Reservations[i]
		if res.ID <= last || res.ID >= st.NextID {
			return fmt.Errorf("ctlplane: reservation id %d out of order (after %d, next %d)", res.ID, last, st.NextID)
		}
		last = res.ID
		checked, err := admit.Check(res.Req, t.cfg.Radix, t.cfg.LMax)
		if err != nil {
			return fmt.Errorf("ctlplane: reservation %d: %v", res.ID, err)
		}
		if t.inDown[res.Req.Src] || t.outDown[res.Req.Dst] {
			return fmt.Errorf("ctlplane: reservation %d holds failed port %d->%d", res.ID, res.Req.Src, res.Req.Dst)
		}
		set := &t.gb[res.Req.Dst]
		if res.Req.Class == noc.GuaranteedLatency {
			set = &t.gl[res.Req.Dst]
		}
		for _, r := range *set {
			if r.Req.Src == res.Req.Src {
				return fmt.Errorf("ctlplane: reservations %d and %d both hold %d->%d/%v", r.ID, res.ID, res.Req.Src, res.Req.Dst, res.Req.Class)
			}
		}
		if want := costOf(checked); res.Cost != want || res.GrantedCost > Frame ||
			(res.Req.Class == noc.GuaranteedLatency && res.GrantedCost != want) {
			return fmt.Errorf("ctlplane: reservation %d costs %d (granted %d), its request %d", res.ID, res.Cost, res.GrantedCost, want)
		}
		*set = append(*set, &res)
		t.byID[res.ID] = &res
	}
	for o := range t.gbBudget {
		if g, gl := t.gbGranted(o), t.glUsed(o); g > t.gbBudget[o] || gl > t.glBudget {
			return fmt.Errorf("ctlplane: output %d over-committed: GB %d of %d granted, GL %d of %d", o, g, t.gbBudget[o], gl, t.glBudget)
		}
	}
	return nil
}
