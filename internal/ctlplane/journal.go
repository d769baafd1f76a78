// Journal format (see DESIGN.md "Control plane"): a JSONL file where
// every line is a CRC-framed record,
//
//	{"crc":<IEEE CRC32 of the rec bytes>,"rec":{...}}
//
// The first record is the header (format version + the full simulation
// configuration, seed included); after it come accepted commands with
// their apply cycles, periodic fsync'd snapshots, and a final end
// record on clean shutdown. Rejected commands are never journaled (they
// change no state), and lease expirations are not journaled either:
// they fire at cycles derived deterministically from the admitted
// commands, so replay re-derives them.
//
// Recovery is deterministic re-execution from genesis: the header
// rebuilds the identical simulation, commands re-apply at their stamped
// cycles, and every snapshot along the way is verified against the
// re-executed state (trace hash, counters, admission table). A torn
// tail — the bytes of a record interrupted by a crash — fails its CRC
// or its JSON parse and is truncated with a warning; corruption before
// the last record is a hard error, never silent divergence.
package ctlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
)

// JournalVersion is the on-disk format version.
const JournalVersion = 1

// Record kinds.
const (
	KindHeader = "header"
	KindCmd    = "cmd"
	KindSnap   = "snap"
	KindEnd    = "end" // a snapshot marking a clean shutdown
)

// Record is one journal entry.
type Record struct {
	Kind   string      `json:"kind"`
	Header *Header     `json:"header,omitempty"`
	Cmd    *CmdRecord  `json:"cmd,omitempty"`
	Snap   *SnapRecord `json:"snap,omitempty"`
}

// Header is the genesis record: everything needed to rebuild the
// simulation bit-for-bit.
type Header struct {
	Version int       `json:"version"`
	Sim     SimConfig `json:"sim"`
}

// CmdRecord is one accepted command with its apply cycle and, for adds,
// the reservation id the admission table assigned.
type CmdRecord struct {
	Seq   uint64    `json:"seq"`
	Cycle noc.Cycle `json:"cycle"`
	ID    uint64    `json:"id,omitempty"`
	Cmd   Command   `json:"cmd"`
}

// SnapRecord is a verification checkpoint: the control-plane state and
// a digest of the simulation at a cycle. Replay re-derives all of it
// and fails loudly on any mismatch.
type SnapRecord struct {
	Cycle     noc.Cycle       `json:"cycle"`
	Seq       uint64          `json:"seq"` // command sequence watermark
	Table     TableState      `json:"table"`
	Counters  fabric.Counters `json:"counters"`
	Delivered uint64          `json:"delivered"`
	TraceHash uint64          `json:"traceHash"`
}

// frame is the CRC envelope around each record line.
type frame struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// journalFile is what a Journal needs of its file: ordered writes and a
// durability barrier. It is an *os.File outside tests, which substitute
// one that fails or short-writes on demand (the journal's counterpart of
// internal/faults).
type journalFile interface {
	io.Writer
	Sync() error
}

// Journal is an append-only record writer. Append buffers; Sync flushes
// and fsyncs — the Plane syncs once after every batch of accepted
// commands and after every snapshot, so an acknowledged command is never
// lost. A journal that failed once stays failed: every later Append and
// Sync returns the first error, so nothing written behind a lost record
// can be reported durable.
type Journal struct {
	f      journalFile
	closer io.Closer
	w      *bufio.Writer
	path   string
	dirty  bool // appended to since the last successful Sync
	err    error

	records, syncs uint64
}

func newJournal(f journalFile, closer io.Closer, path string) *Journal {
	return &Journal{f: f, closer: closer, w: bufio.NewWriter(f), path: path}
}

// CreateJournal creates (truncating) a journal file.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: create journal: %w", err)
	}
	return newJournal(f, f, path), nil
}

// AppendJournal opens an existing journal for appending (resume after
// recovery). The caller must have truncated any torn tail first.
func AppendJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: open journal: %w", err)
	}
	return newJournal(f, f, path), nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Counts returns how many records this handle appended and how many
// fsyncs it issued, the header, snapshots and end record included.
func (j *Journal) Counts() (records, syncs uint64) { return j.records, j.syncs }

// fail records the journal's first error and returns it.
func (j *Journal) fail(err error) error {
	if j.err == nil {
		j.err = err
	}
	return j.err
}

// Append writes one CRC-framed record line.
func (j *Journal) Append(rec *Record) error {
	if j.err != nil {
		return j.err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return j.fail(fmt.Errorf("ctlplane: marshal journal record: %w", err))
	}
	fr := frame{CRC: crc32.ChecksumIEEE(raw), Rec: raw}
	line, err := json.Marshal(fr)
	if err != nil {
		return j.fail(fmt.Errorf("ctlplane: marshal journal frame: %w", err))
	}
	j.dirty = true
	if _, err := j.w.Write(line); err != nil {
		return j.fail(fmt.Errorf("ctlplane: write journal: %w", err))
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return j.fail(fmt.Errorf("ctlplane: write journal: %w", err))
	}
	j.records++
	return nil
}

// Sync flushes buffered records and fsyncs the file. With nothing
// appended since the last successful Sync it returns at once: a batch of
// rejections costs no fsync.
func (j *Journal) Sync() error {
	if j.err != nil || !j.dirty {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		return j.fail(fmt.Errorf("ctlplane: flush journal: %w", err))
	}
	if err := j.f.Sync(); err != nil {
		return j.fail(fmt.Errorf("ctlplane: fsync journal: %w", err))
	}
	j.dirty = false
	j.syncs++
	return nil
}

// Close flushes, fsyncs, and closes the file.
func (j *Journal) Close() error {
	if err := j.Sync(); err != nil {
		j.closer.Close()
		return err
	}
	return j.closer.Close()
}

// decodeRecord parses and CRC-checks one journal line.
func decodeRecord(line []byte) (Record, error) {
	var fr frame
	if err := json.Unmarshal(line, &fr); err != nil {
		return Record{}, fmt.Errorf("frame parse: %w", err)
	}
	if got := crc32.ChecksumIEEE(fr.Rec); got != fr.CRC {
		return Record{}, fmt.Errorf("crc mismatch: recorded %08x, computed %08x", fr.CRC, got)
	}
	var rec Record
	if err := json.Unmarshal(fr.Rec, &rec); err != nil {
		return Record{}, fmt.Errorf("record parse: %w", err)
	}
	return rec, nil
}

// DecodeJournal parses journal bytes, tolerating a torn tail: the
// records of every complete, CRC-valid line are returned along with the
// byte offset where valid data ends (== len(data) for a clean journal)
// and a human-readable warning when a tail was discarded. Damage
// anywhere before the final line is corruption, not a torn write, and
// returns an error instead of a silently shortened history.
func DecodeJournal(data []byte) (recs []Record, validEnd int64, warn string, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		line := data[off:]
		complete := nl >= 0
		if complete {
			line = data[off : off+nl]
		}
		rec, derr := decodeRecord(line)
		if derr != nil {
			rest := 0
			if complete {
				rest = len(data) - (off + nl + 1)
			}
			if rest > 0 {
				return nil, 0, "", fmt.Errorf("ctlplane: journal corrupt at byte %d (%v) with %d bytes of later records; refusing to replay a hole", off, derr, rest)
			}
			return recs, int64(off), fmt.Sprintf("discarded torn journal tail: %d byte(s) at offset %d (%v); recovered %d complete record(s)",
				len(data)-off, off, derr, len(recs)), nil
		}
		if !complete {
			// A record that parses and passes its CRC but lost only the
			// trailing newline: content is intact, keep it.
			recs = append(recs, rec)
			return recs, int64(len(data)), fmt.Sprintf("journal tail missing trailing newline at offset %d; last record intact", off), nil
		}
		recs = append(recs, rec)
		off += nl + 1
	}
	return recs, int64(off), "", nil
}

// ReadJournal reads and decodes a journal file (see DecodeJournal).
// A missing file returns zero records and no error.
func ReadJournal(path string) (recs []Record, validEnd int64, warn string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, "", nil
		}
		return nil, 0, "", fmt.Errorf("ctlplane: read journal: %w", err)
	}
	return DecodeJournal(data)
}
