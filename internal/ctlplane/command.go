package ctlplane

import (
	"fmt"
	"strconv"
	"strings"

	"swizzleqos/internal/ctlplane/admit"
	"swizzleqos/internal/noc"
)

// Op is a control-plane command verb.
type Op uint8

const (
	// OpAdd admits a new GB or GL reservation (optionally leased).
	OpAdd Op = iota
	// OpRemove revokes a reservation by id.
	OpRemove
	// OpResize changes a reservation's reserved rate and/or lease.
	OpResize
	// OpBudget changes one output's GB budget share.
	OpBudget
	// OpPolicy switches the budget-shrink policy (degrade vs reject).
	OpPolicy
)

// String returns the line-protocol verb.
func (op Op) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpResize:
		return "resize"
	case OpBudget:
		return "budget"
	case OpPolicy:
		return "policy"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// FlowReq is the client-visible description of a requested reservation.
// It lives in package admit, beside the Check that turns it into the
// only form the admission arithmetic accepts.
type FlowReq = admit.FlowReq

// Command is one control-plane mutation. Accepted commands are journaled
// verbatim with their apply cycle, so the struct is the durable wire
// format as well as the API surface.
type Command struct {
	Op   Op       `json:"op"`
	Flow *FlowReq `json:"flow,omitempty"` // add

	ID   uint64  `json:"id,omitempty"`   // remove/resize target
	Rate float64 `json:"rate,omitempty"` // resize: new rate (0 = unchanged)

	// Lease is a lease duration in cycles from the apply cycle; the
	// reservation expires deterministically at apply+Lease. SetLease
	// distinguishes "no lease change" from "clear the lease" on resize.
	Lease    noc.Cycle `json:"lease,omitempty"`
	SetLease bool      `json:"setLease,omitempty"`

	Output int     `json:"output,omitempty"` // budget
	Share  float64 `json:"share,omitempty"`  // budget

	Degrade bool `json:"degrade,omitempty"` // policy

	// Tag identifies a scripted command across daemon restarts, so a
	// resume can skip script entries its journal already holds.
	Tag string `json:"tag,omitempty"`
}

// Validate structurally checks a command at the trust boundary: Apply
// refuses anything malformed before touching admission state, whether
// the command arrived from the line protocol, a script, or journal
// replay. Field semantics against the switch geometry (radix bounds,
// budget fit, GL schedulability) are the admission table's job; this
// check guarantees the command's shape and that its floats are not
// NaN.
func (c Command) Validate() error {
	switch c.Op {
	case OpAdd:
		if c.Flow == nil {
			return fmt.Errorf("add without a flow")
		}
	case OpRemove, OpResize, OpBudget, OpPolicy:
	default:
		return fmt.Errorf("unknown op %v", c.Op)
	}
	// Accepting comparisons: NaN fails and is rejected here instead of
	// reaching the fixed-point budget math.
	if c.Rate != 0 && !(c.Rate > 0 && c.Rate <= 1) {
		return fmt.Errorf("resize rate %g outside (0,1]", c.Rate)
	}
	if c.Op == OpBudget && !(c.Share >= 0 && c.Share <= 1) {
		return fmt.Errorf("budget share %g outside [0,1]", c.Share)
	}
	return nil
}

// Reason is a typed rejection cause returned to clients.
type Reason string

const (
	// ReasonBadRequest: the command is malformed for this switch.
	ReasonBadRequest Reason = "bad-request"
	// ReasonExists: the (src,dst,class) triple already has an active
	// reservation; resize or remove it instead.
	ReasonExists Reason = "exists"
	// ReasonNotFound: no active reservation with the given id.
	ReasonNotFound Reason = "not-found"
	// ReasonGBBudget: admitting would over-commit the output's GB
	// Vtick budget.
	ReasonGBBudget Reason = "gb-budget"
	// ReasonGLBudget: admitting would over-commit the output's GL
	// bandwidth share.
	ReasonGLBudget Reason = "gl-budget"
	// ReasonGLBound: the Eq. 1-3 guaranteed-latency analysis cannot
	// schedule the requested set (worst-case wait exceeds a constraint,
	// or a requested burst exceeds its Eq. 2-3 budget).
	ReasonGLBound Reason = "gl-bound"
	// ReasonPortDown: the source or destination port has fail-stopped.
	ReasonPortDown Reason = "port-down"
	// ReasonFrozen: the simulation froze sick; no further mutations.
	ReasonFrozen Reason = "frozen"
	// ReasonJournal: the command was admitted but could not be made
	// durable; the plane freezes rather than diverge from its journal.
	ReasonJournal Reason = "journal"
)

// Result is the response to one command.
type Result struct {
	OK    bool
	ID    uint64 // reservation id (add: assigned; remove/resize: echoed)
	Cycle noc.Cycle

	Reason Reason
	// RetryAfter hints how many cycles until the rejection might clear
	// (the earliest lease expiry at the contended output); 0 = no hint.
	RetryAfter noc.Cycle
	Msg        string
	// Vtick is what an accepted add or resize programmed: the
	// reservation's GrantedVtick, the virtual-clock increment its flow is
	// charged per packet. 0 for every other command.
	Vtick noc.VTime
}

// String renders the line-protocol response.
func (r Result) String() string {
	if r.OK {
		s := fmt.Sprintf("ok id=%d cycle=%d", r.ID, r.Cycle.Uint())
		if r.Vtick > 0 {
			s += fmt.Sprintf(" vtick=%d", r.Vtick.Uint())
		}
		return s
	}
	s := fmt.Sprintf("err reason=%s cycle=%d", r.Reason, r.Cycle.Uint())
	if r.RetryAfter > 0 {
		s += fmt.Sprintf(" retry-after=%d", r.RetryAfter.Uint())
	}
	if r.Msg != "" {
		s += fmt.Sprintf(" msg=%q", r.Msg)
	}
	return s
}

// ParseCommand parses one line-protocol command:
//
//	add gb <src> <dst> rate=<f> len=<n> [lease=<cycles>] [users=<n>] [load=<f>]
//	add gl <src> <dst> rate=<f> len=<n> latency=<cycles> burst=<n> [lease=<cycles>] [users=<n>]
//	remove <id>
//	resize <id> [rate=<f>] [lease=<cycles>]
//	budget <output> share=<f>
//	policy degrade|reject
//
// lease=0 on resize clears an existing lease.
func ParseCommand(line string) (Command, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("ctlplane: empty command")
	}
	switch fields[0] {
	case "add":
		return parseAdd(fields[1:])
	case "remove":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("ctlplane: usage: remove <id>")
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return Command{}, fmt.Errorf("ctlplane: bad id %q", fields[1])
		}
		return Command{Op: OpRemove, ID: id}, nil
	case "resize":
		return parseResize(fields[1:])
	case "budget":
		return parseBudget(fields[1:])
	case "policy":
		if len(fields) != 2 || (fields[1] != "degrade" && fields[1] != "reject") {
			return Command{}, fmt.Errorf("ctlplane: usage: policy degrade|reject")
		}
		return Command{Op: OpPolicy, Degrade: fields[1] == "degrade"}, nil
	}
	return Command{}, fmt.Errorf("ctlplane: unknown command %q", fields[0])
}

func parseAdd(fields []string) (Command, error) {
	if len(fields) < 3 {
		return Command{}, fmt.Errorf("ctlplane: usage: add gb|gl <src> <dst> key=value...")
	}
	req := FlowReq{}
	switch fields[0] {
	case "gb":
		req.Class = noc.GuaranteedBandwidth
	case "gl":
		req.Class = noc.GuaranteedLatency
	default:
		return Command{}, fmt.Errorf("ctlplane: add class must be gb or gl, got %q", fields[0])
	}
	var err error
	if req.Src, err = strconv.Atoi(fields[1]); err != nil {
		return Command{}, fmt.Errorf("ctlplane: bad src %q", fields[1])
	}
	if req.Dst, err = strconv.Atoi(fields[2]); err != nil {
		return Command{}, fmt.Errorf("ctlplane: bad dst %q", fields[2])
	}
	cmd := Command{Op: OpAdd}
	for _, kv := range fields[3:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Command{}, fmt.Errorf("ctlplane: expected key=value, got %q", kv)
		}
		switch key {
		case "rate":
			req.Rate, err = strconv.ParseFloat(val, 64)
		case "len":
			req.PacketLen, err = strconv.Atoi(val)
		case "latency":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 64)
			req.Latency = noc.CycleOf(n)
		case "burst":
			req.Burst, err = strconv.Atoi(val)
		case "users":
			req.Users, err = strconv.Atoi(val)
		case "load":
			req.Load, err = strconv.ParseFloat(val, 64)
		case "lease":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 64)
			cmd.Lease, cmd.SetLease = noc.CycleOf(n), true
		default:
			return Command{}, fmt.Errorf("ctlplane: unknown add option %q", key)
		}
		if err != nil {
			return Command{}, fmt.Errorf("ctlplane: bad value %q for %s", val, key)
		}
	}
	cmd.Flow = &req
	return cmd, nil
}

func parseResize(fields []string) (Command, error) {
	if len(fields) < 1 {
		return Command{}, fmt.Errorf("ctlplane: usage: resize <id> [rate=<f>] [lease=<cycles>]")
	}
	id, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return Command{}, fmt.Errorf("ctlplane: bad id %q", fields[0])
	}
	cmd := Command{Op: OpResize, ID: id}
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Command{}, fmt.Errorf("ctlplane: expected key=value, got %q", kv)
		}
		switch key {
		case "rate":
			cmd.Rate, err = strconv.ParseFloat(val, 64)
		case "lease":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 64)
			cmd.Lease, cmd.SetLease = noc.CycleOf(n), true
		default:
			return Command{}, fmt.Errorf("ctlplane: unknown resize option %q", key)
		}
		if err != nil {
			return Command{}, fmt.Errorf("ctlplane: bad value %q for %s", val, key)
		}
	}
	return cmd, nil
}

func parseBudget(fields []string) (Command, error) {
	if len(fields) != 2 {
		return Command{}, fmt.Errorf("ctlplane: usage: budget <output> share=<f>")
	}
	out, err := strconv.Atoi(fields[0])
	if err != nil {
		return Command{}, fmt.Errorf("ctlplane: bad output %q", fields[0])
	}
	key, val, ok := strings.Cut(fields[1], "=")
	if !ok || key != "share" {
		return Command{}, fmt.Errorf("ctlplane: usage: budget <output> share=<f>")
	}
	share, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return Command{}, fmt.Errorf("ctlplane: bad share %q", val)
	}
	return Command{Op: OpBudget, Output: out, Share: share}, nil
}

// Scheduled is one scripted command with its deterministic apply cycle.
type Scheduled struct {
	At  noc.Cycle
	Cmd Command
}

// ParseScript parses a command script: one `@<cycle> <command>` per
// line, '#' comments and blank lines ignored, cycles non-decreasing.
// Each command is tagged with its line number so a resumed daemon can
// skip entries its journal already holds.
func ParseScript(text string) ([]Scheduled, error) {
	var out []Scheduled
	var last noc.Cycle
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "@") {
			return nil, fmt.Errorf("ctlplane: script line %d: expected @<cycle> <command>", i+1)
		}
		at, rest, _ := strings.Cut(line[1:], " ")
		n, err := strconv.ParseUint(at, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ctlplane: script line %d: bad cycle %q", i+1, at)
		}
		cmd, err := ParseCommand(rest)
		if err != nil {
			return nil, fmt.Errorf("ctlplane: script line %d: %w", i+1, err)
		}
		cmd.Tag = fmt.Sprintf("L%d", i+1)
		at2 := noc.CycleOf(n)
		if at2 < last {
			return nil, fmt.Errorf("ctlplane: script line %d: cycle %d before previous %d", i+1, n, last.Uint())
		}
		last = at2
		out = append(out, Scheduled{At: at2, Cmd: cmd})
	}
	return out, nil
}
