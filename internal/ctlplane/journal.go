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
// A snapshot also carries the plane's whole state at its cycle (the
// "state" blob, see state.go), so recovery (RecoverFile) restores the
// newest snapshot it can and re-executes only the records behind it:
// commands re-apply at their stamped cycles, and every later snapshot is
// verified against the re-executed state (trace hash, counters, admission
// table). What lies before that snapshot is CRC-checked and otherwise
// trusted, as a CRC-valid command record always was. A journal whose
// snapshots carry no state, or none that restores, recovers as Rebuild
// replays: deterministic re-execution from genesis, the header rebuilding
// the identical simulation and every snapshot verified along the way.
// Rebuild remains the audit of a whole journal and the oracle every
// restore is tested against. A torn tail — the bytes of a record
// interrupted by a crash — fails its CRC or its JSON parse and is
// truncated with a warning; corruption before the last record is a hard
// error, never silent divergence.
package ctlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"

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

// SnapRecord is a checkpoint: the control-plane state and a digest of
// the simulation at a cycle, which replay re-derives and fails loudly on
// any mismatch of, and in State everything else the plane and its engine
// hold at that cycle (state.go), which lets recovery start here instead of
// at the header. A record without State (an older journal, a frozen
// plane) is a verification checkpoint only.
type SnapRecord struct {
	Cycle     noc.Cycle       `json:"cycle"`
	Seq       uint64          `json:"seq"` // command sequence watermark
	Table     TableState      `json:"table"`
	Counters  fabric.Counters `json:"counters"`
	Delivered uint64          `json:"delivered"`
	TraceHash uint64          `json:"traceHash"`
	State     []byte          `json:"state,omitempty"`
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

// ErrUnsyncedWindow fails a Journal asked to mix command records with
// checkpoints (snapshot and end records) between two Syncs: a checkpoint
// behind unsynced commands, or a command behind an unsynced checkpoint.
var ErrUnsyncedWindow = errors.New("ctlplane: journal record inside an unsynced window of the other kind")

// Journal is an append-only record writer. Append buffers; Sync flushes
// and fsyncs — the Plane syncs once after every batch of accepted
// commands and after every snapshot, so an acknowledged command is never
// lost. Between two Syncs, command records and checkpoints never mix:
// Append refuses either behind the other with ErrUnsyncedWindow, so a
// snapshot never races an unsynced command. A journal that failed once stays failed: every later Append
// and Sync returns the first error, so nothing written behind a lost
// record can be reported durable.
type Journal struct {
	f      journalFile
	closer io.Closer
	w      *bufio.Writer
	path   string
	dirty  bool // appended to since the last successful Sync
	// cmds and checks say which kinds the unsynced records are: commands,
	// or checkpoints.
	cmds, checks bool
	err          error

	// Append encodes every record into rec through enc and frames it in
	// head, so a record costs no allocation that grows with its size.
	rec  bytes.Buffer
	enc  *json.Encoder
	head []byte

	records, syncs uint64
}

func newJournal(f journalFile, closer io.Closer, path string) *Journal {
	j := &Journal{f: f, closer: closer, w: bufio.NewWriter(f), path: path}
	j.enc = json.NewEncoder(&j.rec)
	return j
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

// Append writes one CRC-framed record line: the record is encoded once,
// checksummed where it lies, and the envelope written around it by hand —
// byte for byte what marshalling a frame would produce.
func (j *Journal) Append(rec *Record) error {
	if j.err != nil {
		return j.err
	}
	cmd, check := rec.Kind == KindCmd, rec.Kind == KindSnap || rec.Kind == KindEnd
	if cmd && j.checks || check && j.cmds {
		return j.fail(fmt.Errorf("%w (a %s record)", ErrUnsyncedWindow, rec.Kind))
	}
	j.rec.Reset()
	if err := j.enc.Encode(rec); err != nil {
		return j.fail(fmt.Errorf("ctlplane: marshal journal record: %w", err))
	}
	raw := j.rec.Bytes()
	raw = raw[:len(raw)-1] // Encode ends the value with a newline
	j.head = append(j.head[:0], framePrefix...)
	j.head = strconv.AppendUint(j.head, uint64(crc32.ChecksumIEEE(raw)), 10)
	j.head = append(j.head, frameMiddle...)
	j.dirty = true
	j.cmds, j.checks = j.cmds || cmd, j.checks || check
	for _, part := range [3][]byte{j.head, raw, frameSuffix} {
		if _, err := j.w.Write(part); err != nil {
			return j.fail(fmt.Errorf("ctlplane: write journal: %w", err))
		}
	}
	j.records++
	return nil
}

// The envelope around a record, as json.Marshal spells a frame.
const (
	framePrefix = `{"crc":`
	frameMiddle = `,"rec":`
)

var frameSuffix = []byte("}\n")

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
	j.dirty, j.cmds, j.checks = false, false, false
	j.syncs++
	return nil
}

// holds reports whether the journal is durable and holds exactly n
// records appended behind the count from: nothing failed, nothing is
// appended since the last successful Sync, and the record count rose
// by n.
func (j *Journal) holds(from uint64, n int) bool {
	return j.err == nil && !j.dirty && j.records == from+uint64(n)
}

// Close flushes, fsyncs, and closes the file.
func (j *Journal) Close() error {
	if err := j.Sync(); err != nil {
		j.closer.Close()
		return err
	}
	return j.closer.Close()
}

// frameOf CRC-checks one journal line and returns the record bytes inside
// its envelope, without copying or parsing them. A line Append wrote is
// taken apart where it lies; anything else — a torn line, or a frame some
// other encoder spelled differently — goes through the JSON decoder, whose
// verdict and wording are the ones that count.
func frameOf(line []byte) ([]byte, error) {
	if rest, ok := bytes.CutPrefix(line, []byte(framePrefix)); ok {
		digits := 0
		for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
			digits++
		}
		crc, err := strconv.ParseUint(string(rest[:digits]), 10, 32)
		rec, ok := bytes.CutPrefix(rest[digits:], []byte(frameMiddle))
		if err == nil && ok && len(rec) > 0 && rec[len(rec)-1] == '}' {
			if rec = rec[:len(rec)-1]; uint64(crc32.ChecksumIEEE(rec)) == crc {
				return rec, nil
			}
		}
	}
	var fr frame
	if err := json.Unmarshal(line, &fr); err != nil {
		return nil, fmt.Errorf("frame parse: %w", err)
	}
	if got := crc32.ChecksumIEEE(fr.Rec); got != fr.CRC {
		return nil, fmt.Errorf("crc mismatch: recorded %08x, computed %08x", fr.CRC, got)
	}
	return fr.Rec, nil
}

// parseRecord parses the record bytes of a CRC-valid frame.
func parseRecord(raw []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, fmt.Errorf("record parse: %w", err)
	}
	return rec, nil
}

// decodeRecord parses and CRC-checks one journal line.
func decodeRecord(line []byte) (Record, error) {
	raw, err := frameOf(line)
	if err != nil {
		return Record{}, err
	}
	return parseRecord(raw)
}

// scanJournal walks journal bytes line by line under the torn-tail rule:
// visit says why a line is not a valid record, or nil. A bad line with
// nothing behind it is a torn write: the scan stops in front of it with a
// warning. A bad line with records behind it is corruption, and an error.
// It returns how many lines visit accepted and the byte offset where valid
// data ends (== len(data) for a clean journal).
func scanJournal(data []byte, visit func(line []byte) error) (lines int, validEnd int64, warn string, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		line := data[off:]
		complete := nl >= 0
		if complete {
			line = data[off : off+nl]
		}
		if derr := visit(line); derr != nil {
			rest := 0
			if complete {
				rest = len(data) - (off + nl + 1)
			}
			if rest > 0 {
				return 0, 0, "", fmt.Errorf("ctlplane: journal corrupt at byte %d (%v) with %d bytes of later records; refusing to replay a hole", off, derr, rest)
			}
			return lines, int64(off), fmt.Sprintf("discarded torn journal tail: %d byte(s) at offset %d (%v); recovered %d complete record(s)",
				len(data)-off, off, derr, lines), nil
		}
		lines++
		if !complete {
			// A record that parses and passes its CRC but lost only the
			// trailing newline: content is intact, keep it.
			return lines, int64(len(data)), fmt.Sprintf("journal tail missing trailing newline at offset %d; last record intact", off), nil
		}
		off += nl + 1
	}
	return lines, int64(off), "", nil
}

// DecodeJournal parses journal bytes, tolerating a torn tail: the
// records of every complete, CRC-valid line are returned along with the
// byte offset where valid data ends (== len(data) for a clean journal)
// and a human-readable warning when a tail was discarded. Damage
// anywhere before the final line is corruption, not a torn write, and
// returns an error instead of a silently shortened history.
func DecodeJournal(data []byte) (recs []Record, validEnd int64, warn string, err error) {
	_, validEnd, warn, err = scanJournal(data, func(line []byte) error {
		rec, derr := decodeRecord(line)
		if derr == nil {
			recs = append(recs, rec)
		}
		return derr
	})
	if err != nil {
		return nil, 0, "", err
	}
	return recs, validEnd, warn, nil
}

// ReadJournal reads and decodes a journal file (see DecodeJournal).
// A missing file returns zero records and no error.
func ReadJournal(path string) (recs []Record, validEnd int64, warn string, err error) {
	data, err := readJournalFile(path)
	if err != nil || data == nil {
		return nil, 0, "", err
	}
	return DecodeJournal(data)
}

// readJournalFile reads a journal file whole; a missing one is nil, nil.
func readJournalFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ctlplane: read journal: %w", err)
	}
	return data, nil
}
