// Package journal is the durable half of the campaign control plane: a
// write-ahead, append-only journal that makes campaigns first-class
// resources — created once, addressable forever, resumable after a
// client disconnect, a server restart, or a coordinator failover.
//
// Each campaign is one NDJSON file of Records in a journal directory:
// record 0 is the campaign's creation payload (its point list and
// stream options), every later record is one stream frame — a result
// (carrying its per-job report when the campaign asked for reports), a
// trace, or the terminal done/error/cancelled event — stored as the
// exact bytes that were put on the wire. Replaying a journal therefore
// reproduces the stream byte-for-byte, and the set of journaled result
// records is the campaign's checkpoint set: a resumed run dispatches
// only the positions missing from it.
//
// Durability model: records are appended with a single write(2) each,
// so a crash — even kill -9 — can at worst tear the final line. Read
// discards a torn or otherwise invalid tail instead of failing, and
// Reopen truncates it away before appending, so the journal is always
// a valid prefix of the campaign's history. Appends are not fsynced:
// the failure domain is the process, not the machine, and a torn tail
// merely re-runs one point.
//
// The directory also holds the coordinator's failover state: the
// persisted peer table (SavePeers/LoadPeers) and the TTL'd coordinator
// lease (AcquireLease), which a standby watches and — once stale —
// breaks, adopting the journal and the peer table.
//
// The same files back the persistent result cache
// (sdpolicy.Engine.PersistCache): there each process appends to a
// journal of its own in the cache directory, whose create record holds
// the format version and whose later records each hold one cached
// result. A cache directory and a campaign journal directory must be
// different directories: recovery would adopt every cache log as a
// campaign.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Record kinds. KindCreate is always record 0; the others mirror the
// stream frame events they journal verbatim.
const (
	KindCreate    = "create"
	KindResult    = "result"
	KindDone      = "done"
	KindError     = "error"
	KindCancelled = "cancelled"
	// KindTrace is a campaign's optional trace summary, journaled just
	// before its terminal record.
	KindTrace = "trace"
)

// TerminalKind reports whether a record kind ends its campaign. A
// journal without a terminal record is an in-flight campaign: whoever
// owns the journal next (the restarted server, or a standby that
// adopted it) must resume it.
func TerminalKind(kind string) bool {
	switch kind {
	case KindDone, KindError, KindCancelled:
		return true
	}
	return false
}

// Record is one journal line. Seq is the record's position (the create
// record is 0, stream frames count from 1 — matching the seq embedded
// in the frame bytes themselves); Data is the exact frame payload.
type Record struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// ErrExists reports a Create for a campaign ID that already has a
// journal — the caller should treat the campaign as existing (HTTP
// 409) rather than clobber history.
var ErrExists = errors.New("campaign journal already exists")

const journalExt = ".journal"

// Journal is a directory of campaign journals plus the coordinator's
// failover state. All methods are safe for concurrent use; appends to
// one campaign are serialised by its Writer.
type Journal struct {
	dir string
}

// Open ensures dir exists and returns the journal over it.
func Open(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// MaxIDLen bounds a campaign ID's length.
const MaxIDLen = 64

// ValidateID rejects campaign IDs that cannot safely name a journal
// file: 1..MaxIDLen chars drawn from [A-Za-z0-9._-]. The serving layer
// accepts exactly these for X-Campaign-ID.
func ValidateID(id string) error {
	if id == "" || len(id) > MaxIDLen {
		return fmt.Errorf("journal: campaign ID %q must be 1..%d characters", id, MaxIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("journal: campaign ID %q contains %q (want [A-Za-z0-9._-])", id, c)
		}
	}
	return nil
}

func (j *Journal) path(id string) string { return filepath.Join(j.dir, id+journalExt) }

// List returns the campaign IDs with a journal file, sorted.
func (j *Journal) List() ([]string, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), journalExt) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(e.Name(), journalExt))
	}
	sort.Strings(ids)
	return ids, nil
}

// Create starts a new campaign journal, writing its create record
// (seq 0) with the given payload, under Append's rules for data. It
// fails with ErrExists if the campaign already has a journal —
// creation is the duplicate check.
func (j *Journal) Create(id string, create json.RawMessage) (*Writer, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.path(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("journal: campaign %s: %w", id, ErrExists)
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f, id: id}
	if err := w.write(0, KindCreate, create); err != nil {
		f.Close()
		os.Remove(j.path(id))
		return nil, err
	}
	return w, nil
}

// Read parses a campaign journal, discarding a torn or invalid final
// line (the signature of a crash mid-append) rather than failing:
// kill -9 can at worst cost the last record. Corruption anywhere but
// the tail is an error. The create record is always records[0].
func (j *Journal) Read(id string) ([]Record, error) {
	recs, _, err := j.readValid(id)
	return recs, err
}

// readValid additionally returns the byte length of the valid record
// prefix, which Reopen truncates the file to before appending.
func (j *Journal) readValid(id string) ([]Record, int64, error) {
	if err := ValidateID(id); err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(j.path(id))
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	var recs []Record
	var valid int64
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No newline: the final append was torn mid-line.
			break
		}
		line := data[off : off+nl]
		last := off+nl+1 >= len(data)
		rec, perr := parseRecord(line, uint64(len(recs)))
		if perr != nil {
			if last {
				// An invalid final line is a torn append too (e.g. the
				// newline of a partially written record landed but its
				// JSON did not): discard it, keep the valid prefix.
				break
			}
			return nil, 0, fmt.Errorf("journal: %s record %d: %w", id, len(recs), perr)
		}
		recs = append(recs, rec)
		off += nl + 1
		valid = int64(off)
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("journal: %s has no valid create record", id)
	}
	return recs, valid, nil
}

// parseRecord decodes and validates one journal line at position want.
func parseRecord(line []byte, want uint64) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	if rec.Kind == "" {
		return rec, errors.New("missing kind")
	}
	if rec.Seq != want {
		return rec, fmt.Errorf("seq %d, want %d", rec.Seq, want)
	}
	if want == 0 && rec.Kind != KindCreate {
		return rec, fmt.Errorf("first record is %q, want %q", rec.Kind, KindCreate)
	}
	if want > 0 && rec.Kind == KindCreate {
		return rec, fmt.Errorf("record %d is a second create", want)
	}
	return rec, nil
}

// Reopen resumes appending to an existing campaign journal: the torn
// tail (if any) is truncated away, and the returned Writer continues
// the sequence from the last valid record. The parsed records are
// returned so the caller can rebuild the campaign's state — replayable
// frames plus the completed-position checkpoint set — in one pass.
func (j *Journal) Reopen(id string) (*Writer, []Record, error) {
	recs, valid, err := j.readValid(id)
	if err != nil {
		return nil, nil, err
	}
	path := j.path(id)
	if err := os.Truncate(path, valid); err != nil {
		return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", id, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Writer{f: f, id: id, seq: recs[len(recs)-1].Seq}, recs, nil
}

// Writer appends records to one campaign journal. Safe for concurrent
// use, though campaigns have a single appender in practice.
type Writer struct {
	mu  sync.Mutex
	f   *os.File
	id  string
	seq uint64
}

// Seq returns the last written record's sequence number.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Append journals one stream frame. The caller assigns seq (it is
// embedded in the frame bytes, which must replay exactly); Append
// enforces that the sequence stays contiguous.
//
// The record line is {"seq":N,"kind":K,"data":D} written around the
// caller's bytes, which are not re-encoded: data must be one line of
// valid JSON, and Append refuses anything else. For data as
// json.Marshal writes it (compact, HTML-escaped), the line equals
// json.Marshal of the Record; empty data is left out, as omitempty
// leaves it out.
func (w *Writer) Append(seq uint64, kind string, data json.RawMessage) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq != w.seq+1 {
		return fmt.Errorf("journal: %s: appending seq %d after %d", w.id, seq, w.seq)
	}
	return w.writeLocked(seq, kind, data)
}

func (w *Writer) write(seq uint64, kind string, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(seq, kind, data)
}

func (w *Writer) writeLocked(seq uint64, kind string, data []byte) error {
	if len(data) > 0 && (bytes.IndexByte(data, '\n') >= 0 || !json.Valid(data)) {
		return fmt.Errorf("journal: %s: record %d: data is not one line of valid JSON", w.id, seq)
	}
	quoted, _ := json.Marshal(kind) // a string always encodes
	line := make([]byte, 0, 64+len(quoted)+len(data))
	line = append(line, `{"seq":`...)
	line = strconv.AppendUint(line, seq, 10)
	line = append(line, `,"kind":`...)
	line = append(line, quoted...)
	if len(data) > 0 {
		line = append(line, `,"data":`...)
		line = append(line, data...)
	}
	line = append(line, "}\n"...)
	// One write call per record: a crash tears at most the final line,
	// which Read/Reopen discard.
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("journal: %s: %w", w.id, err)
	}
	w.seq = seq
	return nil
}

// Close releases the journal file handle.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// peersFileName holds the persisted peer table next to the journals.
const peersFileName = "peers.json"

// peersFile is the persisted peer-table encoding.
type peersFile struct {
	Workers []string `json:"workers"`
}

// SavePeers atomically persists the registered-worker URLs, so a
// standby that adopts the journal directory also adopts the fleet.
func (j *Journal) SavePeers(urls []string) error {
	data, err := json.MarshalIndent(peersFile{Workers: urls}, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(j.dir, peersFileName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// LoadPeers returns the persisted peer table; a journal directory that
// never saw a registration yields nil, nil.
func (j *Journal) LoadPeers() ([]string, error) {
	data, err := os.ReadFile(filepath.Join(j.dir, peersFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var pf peersFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("journal: %s: %w", peersFileName, err)
	}
	return pf.Workers, nil
}
