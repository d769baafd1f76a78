// Package durmut is the durability mutation meta-fixture: a copy of
// the control plane's ApplyAll batch commit with exactly one deliberate
// mutation — the fsync between the batch's last append and the loop
// that turns its results OK is gone. The meta-test asserts the analyzer
// flags both the acknowledgement no sync covers and the return that
// leaves the batch's records buffered, proving the batch rule fails
// closed.
package durmut

// KindCmd is the command-record kind the analyzer matches by value.
const KindCmd = "cmd"

// Record stands in for a journal record.
type Record struct {
	Kind string
	Cmd  *CmdRecord
}

// CmdRecord is one accepted command.
type CmdRecord struct {
	Seq uint64
	ID  uint64
	Cmd Command
}

// Journal matches the analyzer's name-based contract.
type Journal struct {
	n int
}

// Append buffers one record.
func (j *Journal) Append(rec *Record) error {
	j.n++
	return nil
}

// Sync flushes and fsyncs (never called on the mutated path).
func (j *Journal) Sync() error { return nil }

// Result is the command reply.
type Result struct {
	OK     bool
	ID     uint64
	Reason int
}

// Command is one control-plane command.
type Command struct {
	Op int
}

// Plane is the mutated miniature control plane.
type Plane struct {
	jr      *Journal
	seq     uint64
	pending []int
}

// admit stands in for validation plus the admission table.
func (p *Plane) admit(cmd Command) (uint64, bool) { return uint64(cmd.Op), cmd.Op >= 0 }

// journalFailed answers a batch whose journal write failed.
func (p *Plane) journalFailed(out []Result, unseen int) []Result {
	for _, i := range p.pending {
		out[i] = Result{Reason: 1}
	}
	for ; unseen > 0; unseen-- {
		out = append(out, Result{Reason: 1})
	}
	return out
}

// ApplyAll is the real batch shape; the sync block between the append
// loop and the acknowledgement loop has been deleted, so the results
// turn OK, and the function returns, with every record of the batch
// still buffered.
func (p *Plane) ApplyAll(cmds []Command, out []Result) []Result {
	p.pending = p.pending[:0]
	for i, cmd := range cmds {
		id, ok := p.admit(cmd)
		if !ok {
			out = append(out, Result{Reason: 2})
			continue
		}
		p.seq++
		if p.jr != nil {
			if err := p.jr.Append(&Record{Kind: KindCmd, Cmd: &CmdRecord{Seq: p.seq, ID: id, Cmd: cmd}}); err != nil {
				return p.journalFailed(out, len(cmds)-i)
			}
		}
		p.pending = append(p.pending, len(out))
		out = append(out, Result{ID: id})
	}
	// MUTATION: `if p.jr != nil { if err := p.jr.Sync(); err != nil {
	// return p.journalFailed(out, 0) } }` belongs here.
	for _, i := range p.pending {
		out[i].OK = true // want:durability
	}
	return out // want:durability
}
