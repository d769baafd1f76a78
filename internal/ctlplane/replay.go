package ctlplane

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"

	"swizzleqos/internal/noc"
)

// ReplayOptions parameterize journal replay. OnDeliver observes every
// re-executed delivery, e.g. to write a trace file. Under Rebuild that is every delivery since the header.
// Under RecoverFile it is the deliveries recovery re-executes, those
// behind the snapshot it restored: none at all after a clean stop, and
// some of them twice when a snapshot was tried and then refused. A caller
// that needs every delivery recovers through Rebuild and ResumeJournal.
type ReplayOptions struct {
	OnDeliver func(*noc.Packet)
}

// Recovery says how a plane came back from its journal.
type Recovery struct {
	// Snapshot is the cycle of the snapshot the plane was restored from;
	// zero when it was re-executed from the header.
	Snapshot noc.Cycle
	// Reexecuted is the exact number of simulated cycles recovery ran
	// behind that point. From a snapshot it is at most the header's
	// SnapEvery, whatever the journal's length.
	Reexecuted noc.Cycle
}

// Recovered returns what RecoverFile or Rebuild did to build the plane
// (zero for a plane New built).
func (p *Plane) Recovered() Recovery { return p.recovered }

// headerConfig checks a journal's first record and returns the
// simulation it configures.
func headerConfig(hdr Record) (SimConfig, error) {
	if hdr.Kind != KindHeader || hdr.Header == nil {
		return SimConfig{}, fmt.Errorf("ctlplane: journal does not start with a header record (got %q)", hdr.Kind)
	}
	if hdr.Header.Version != JournalVersion {
		return SimConfig{}, fmt.Errorf("ctlplane: journal format version %d, this build reads %d", hdr.Header.Version, JournalVersion)
	}
	return hdr.Header.Sim, nil
}

// Rebuild re-executes a journal from genesis: the header record
// rebuilds the identical simulation, every command re-applies at its
// stamped cycle, and every snapshot along the way is verified against
// the re-executed state. Any divergence — a command that no longer
// admits, a different assigned id, a snapshot that disagrees on the
// trace hash, counters, or admission table — is a hard error naming the
// mismatch; recovery is bit-for-bit or it is refused. A snapshot's state
// blob plays no part: Rebuild is the audit of a whole journal
// (ssvc-serve -replay), the recovery of one no snapshot can restore, and
// the oracle restoring from a snapshot is tested against.
//
// Every journal-decoded value either passes SimConfig.Validate (the
// header) or re-enters admission through Apply (the commands), so the
// returned plane holds only validated state.
func Rebuild(recs []Record, ro ReplayOptions) (*Plane, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("ctlplane: empty journal")
	}
	cfg, err := headerConfig(recs[0])
	if err != nil {
		return nil, err
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if ro.OnDeliver != nil {
		p.OnDeliver(ro.OnDeliver)
	}
	if err := p.replay(recs[1:], 1); err != nil {
		return nil, err
	}
	p.recovered = Recovery{Reexecuted: p.Now()}
	return p, nil
}

// replay re-executes journal records on the plane, verifying as it goes;
// first is the journal index of recs[0], for the messages. The commands
// re-enter admission through Apply.
func (p *Plane) replay(recs []Record, first int) error {
	for i, rec := range recs {
		switch rec.Kind {
		case KindCmd:
			c := rec.Cmd
			if c == nil {
				return fmt.Errorf("ctlplane: journal record %d: cmd record without a command", first+i)
			}
			if c.Cycle < p.Now() {
				return fmt.Errorf("ctlplane: journal record %d: command cycle %d before current cycle %d (journal out of order)",
					first+i, c.Cycle.Uint(), p.Now().Uint())
			}
			if err := p.AdvanceTo(c.Cycle); err != nil {
				return fmt.Errorf("ctlplane: replay to cycle %d: %w", c.Cycle.Uint(), err)
			}
			r := p.Apply(c.Cmd)
			if !r.OK {
				return fmt.Errorf("ctlplane: replay divergence at cycle %d seq %d: journaled %s command re-applied as %s",
					c.Cycle.Uint(), c.Seq, c.Cmd.Op, r.String())
			}
			if c.ID != 0 && r.ID != c.ID {
				return fmt.Errorf("ctlplane: replay divergence at cycle %d seq %d: journaled reservation id %d, re-admission assigned %d",
					c.Cycle.Uint(), c.Seq, c.ID, r.ID)
			}
			if p.seqNo != c.Seq {
				return fmt.Errorf("ctlplane: replay divergence at cycle %d: journaled seq %d, re-execution at seq %d (missing records?)",
					c.Cycle.Uint(), c.Seq, p.seqNo)
			}
		case KindSnap, KindEnd:
			s := rec.Snap
			if s == nil {
				return fmt.Errorf("ctlplane: journal record %d: snapshot record without a snapshot", first+i)
			}
			if err := p.AdvanceTo(s.Cycle); err != nil {
				return fmt.Errorf("ctlplane: replay to cycle %d: %w", s.Cycle.Uint(), err)
			}
			if err := p.verifySnap(s); err != nil {
				return err
			}
		case KindHeader:
			return fmt.Errorf("ctlplane: journal record %d: duplicate header", first+i)
		default:
			return fmt.Errorf("ctlplane: journal record %d: unknown kind %q", first+i, rec.Kind)
		}
	}
	return nil
}

// verifySnap cross-checks a journaled snapshot against the re-executed
// state.
func (p *Plane) verifySnap(s *SnapRecord) error {
	if p.seqNo != s.Seq {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: seq %d journaled, %d re-executed", s.Cycle.Uint(), s.Seq, p.seqNo)
	}
	if p.traceHash != s.TraceHash {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: trace hash %016x journaled, %016x re-executed",
			s.Cycle.Uint(), s.TraceHash, p.traceHash)
	}
	if p.delivered != s.Delivered {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: %d deliveries journaled, %d re-executed",
			s.Cycle.Uint(), s.Delivered, p.delivered)
	}
	if got := p.sw.Totals(); !reflect.DeepEqual(got, s.Counters) {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: counters journaled %+v, re-executed %+v",
			s.Cycle.Uint(), s.Counters, got)
	}
	if got := p.tab.State(); !tableStateEqual(got, s.Table) {
		return fmt.Errorf("ctlplane: snapshot at cycle %d diverges: admission table journaled %+v, re-executed %+v",
			s.Cycle.Uint(), s.Table, got)
	}
	return nil
}

// tableStateEqual compares admission states, treating nil and empty
// slices as equal (JSON round-trips empty slices to nil).
func tableStateEqual(a, b TableState) bool {
	if a.NextID != b.NextID || a.Policy != b.Policy {
		return false
	}
	if !slices.Equal(a.GBBudget, b.GBBudget) {
		return false
	}
	if !slices.Equal(a.InDown, b.InDown) || !slices.Equal(a.OutDown, b.OutDown) {
		return false
	}
	if len(a.Reservations) != len(b.Reservations) {
		return false
	}
	for i := range a.Reservations {
		if !reflect.DeepEqual(a.Reservations[i], b.Reservations[i]) {
			return false
		}
	}
	return true
}

// terminateTail appends the record terminator when a recovered
// journal's last byte is not '\n' — the crash landed between the final
// record's bytes and its newline (DecodeJournal's "last record intact"
// case). Without it, the first post-recovery Append would write its
// frame onto the same line, merging two records into one unparseable
// line and breaking the next recovery.
func terminateTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.WriteAt([]byte{'\n'}, st.Size()); err != nil {
		return err
	}
	return f.Sync()
}

// isSnapshot reports whether record bytes are a snap or end record, by
// how Append spells one: the kind is a record's first field.
func isSnapshot(raw []byte) bool {
	return bytes.HasPrefix(raw, []byte(`{"kind":"`+KindSnap+`"`)) || bytes.HasPrefix(raw, []byte(`{"kind":"`+KindEnd+`"`))
}

// recoverFromSnapshot restores the newest snapshot of the CRC-valid
// records raw that carries a state and restores cleanly, then re-executes
// the records behind it: commands re-applied, later snapshots verified, as
// Rebuild would. A snapshot that does not restore, or whose suffix then
// diverges, is passed over for the next older one, and notes says why. It
// returns a nil plane when no snapshot served.
func recoverFromSnapshot(raw [][]byte, ro ReplayOptions) (p *Plane, notes []string, err error) {
	hdr, err := parseRecord(raw[0])
	if err != nil {
		return nil, nil, nil // Rebuild's to report
	}
	cfg, err := headerConfig(hdr)
	if err != nil {
		return nil, nil, err
	}
	for k := len(raw) - 1; k >= 1; k-- {
		if !isSnapshot(raw[k]) {
			continue
		}
		rec, err := parseRecord(raw[k])
		if err != nil || rec.Snap == nil || len(rec.Snap.State) == 0 {
			continue
		}
		s := rec.Snap
		p, err := restore(cfg, s)
		if err == nil {
			if ro.OnDeliver != nil {
				p.OnDeliver(ro.OnDeliver)
			}
			suffix := make([]Record, 0, len(raw)-k-1)
			for _, b := range raw[k+1:] {
				rec, perr := parseRecord(b)
				if perr != nil {
					err = fmt.Errorf("ctlplane: journal record %d: %w", len(suffix)+k+1, perr)
					break
				}
				suffix = append(suffix, rec)
			}
			if err == nil {
				err = p.replay(suffix, k+1)
			}
		}
		if err == nil {
			p.recovered = Recovery{Snapshot: s.Cycle, Reexecuted: noc.SatSub(p.Now(), s.Cycle)}
			return p, notes, nil
		}
		notes = append(notes, fmt.Sprintf("snapshot at cycle %d not used (%v)", s.Cycle.Uint(), err))
	}
	return nil, notes, nil
}

// RecoverFile recovers a plane from a journal file. Every line is
// CRC-checked where it lies (tolerating a torn tail), but only the
// header, the snapshot recovery starts from and the records behind it are
// decoded: the plane is restored from the newest snapshot whose state
// restores and verifies (see restore), and the suffix re-executed with
// verification. If no snapshot serves — none carries a state, or every one
// that does is refused — the whole journal is decoded and re-executed from
// the header, as Rebuild does. Then any torn bytes are truncated and the
// journal re-attached for appending (ResumeJournal). A missing or empty
// journal returns (nil, "", nil): the caller starts fresh. The returned
// warning describes a discarded torn tail and every snapshot that was
// passed over, if any; Plane.Recovered says where recovery started.
func RecoverFile(path string, ro ReplayOptions) (*Plane, string, error) {
	data, err := readJournalFile(path)
	if err != nil {
		return nil, "", err
	}
	var raw [][]byte
	_, validEnd, warn, err := scanJournal(data, func(line []byte) error {
		rec, ferr := frameOf(line)
		if ferr == nil {
			raw = append(raw, rec)
		}
		return ferr
	})
	if err != nil {
		return nil, "", err
	}
	if len(raw) == 0 {
		return nil, warn, nil
	}
	p, notes, err := recoverFromSnapshot(raw, ro)
	if err != nil {
		return nil, warn, err
	}
	if p == nil {
		// Decoded in full, a record with a good CRC that does not parse
		// counts as damage under the same tail rule.
		var recs []Record
		if recs, validEnd, warn, err = DecodeJournal(data); err != nil {
			return nil, "", err
		}
		if len(recs) == 0 {
			return nil, warn, nil
		}
		if p, err = Rebuild(recs, ro); err != nil {
			return nil, warn, err
		}
		if len(notes) > 0 {
			notes = append(notes, "re-executed from the header")
		}
	}
	for _, note := range notes {
		if warn != "" {
			warn += "; "
		}
		warn += note
	}
	if err := p.ResumeJournal(path, validEnd); err != nil {
		return nil, warn, err
	}
	return p, warn, nil
}

// ResumeJournal makes a plane rebuilt from the journal at path durable on
// it again: bytes behind validEnd (a torn tail, as ReadJournal or
// DecodeJournal reported it) are truncated, a last record that lost only
// its newline is terminated, and the file is attached for appending.
// RecoverFile ends with it; a caller that must see every delivery since
// the header (the daemon regenerating a trace file) recovers with
// ReadJournal, Rebuild and this.
func (p *Plane) ResumeJournal(path string, validEnd int64) error {
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("ctlplane: resume journal: %w", err)
	}
	if st.Size() > validEnd {
		if err := os.Truncate(path, validEnd); err != nil {
			return fmt.Errorf("ctlplane: truncate torn journal tail: %w", err)
		}
	}
	if err := terminateTail(path); err != nil {
		return fmt.Errorf("ctlplane: terminate recovered journal tail: %w", err)
	}
	jr, err := AppendJournal(path)
	if err != nil {
		return err
	}
	return p.AttachJournal(jr, false)
}
