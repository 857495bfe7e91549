package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Record is one journal entry: a job submission or a terminal result.
// Submissions carry the raw spec so a restart can re-expand and resume
// the job; terminal records carry the status (and, for completed jobs,
// the raw result) so a restart can serve finished jobs without
// recomputing anything. A submission with no matching terminal record
// is an interrupted job — the resume signal.
type Record struct {
	// Op is the record kind: OpSubmit or OpFinish.
	Op string `json:"op"`
	// Kind is the job family ("sweep" or "advise"), ID its job id.
	Kind string `json:"kind"`
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Time is when the record was appended (submission or finish time).
	Time time.Time `json:"time"`
	// Total is the job's point count (submissions).
	Total int `json:"total,omitempty"`
	// Spec is the verbatim submitted spec or query JSON (submissions).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Status is the terminal status (finishes); Error the failure
	// message of a failed job.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Result is the terminal result JSON (finishes of completed jobs).
	Result json.RawMessage `json:"result,omitempty"`
}

// Journal record ops.
const (
	OpSubmit = "submit"
	OpFinish = "finish"
)

// maxRecordBytes bounds one journal line at recovery; a terminal record
// carries a whole sweep result, which is at most a few MB.
const maxRecordBytes = 64 << 20

// Journal is an append-only record log with per-record checksum
// framing: one record per line, "crc32(payload) payload\n". A process
// killed mid-append can only ever leave a torn final line, which the
// next open detects (bad checksum or missing newline), cleanly
// truncates away, and never surfaces as a phantom record. Appends are
// fsynced: once Append returns, the record survives a crash.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	recs []Record
	// skipped counts bytes of torn trailing data discarded at open.
	skipped int64
}

// OpenJournal opens (creating if needed) the journal at path, recovers
// every intact record, and truncates any torn tail so subsequent
// appends extend a clean prefix.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	good, err := j.recover()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (if any) and position appends after the last
	// intact record.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking journal: %w", err)
	}
	return j, nil
}

// recover scans the journal from the start, parsing intact records and
// stopping at the first torn or corrupt line. It returns the byte
// offset of the end of the intact prefix.
func (j *Journal) recover() (int64, error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: reading journal: %w", err)
	}
	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("store: reading journal: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: reading journal: %w", err)
	}
	var good int64
	sc := bufio.NewScanner(j.f)
	sc.Buffer(make([]byte, 64<<10), maxRecordBytes)
	for sc.Scan() {
		line := sc.Bytes()
		lineEnd := good + int64(len(line)) + 1 // +1 for the newline
		// A final line without its newline is torn even if it parses:
		// the append was cut mid-write.
		if lineEnd > size {
			break
		}
		rec, ok := parseRecord(line)
		if !ok {
			break
		}
		j.recs = append(j.recs, rec)
		good = lineEnd
		noteJournal(journalOpRecovered)
	}
	// Scanner errors (e.g. an oversized torn line) end recovery at the
	// last good offset, same as a checksum mismatch.
	j.skipped = size - good
	if j.skipped > 0 {
		noteJournal(journalOpSkipped)
	}
	return good, nil
}

// parseRecord decodes one "crc payload" line, rejecting checksum
// mismatches and malformed payloads.
func parseRecord(line []byte) (Record, bool) {
	var rec Record
	sep := bytes.IndexByte(line, ' ')
	if sep != 8 {
		return rec, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:sep]), "%08x", &want); err != nil {
		return rec, false
	}
	payload := line[sep+1:]
	if crc32.ChecksumIEEE(payload) != want {
		return rec, false
	}
	// Unknown fields are tolerated: the checksum already guarantees the
	// payload is exactly what some (possibly newer) writer appended.
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// Append durably appends one record.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal closed")
	}
	if _, err := j.f.WriteString(line); err != nil {
		return fmt.Errorf("store: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing journal: %w", err)
	}
	j.recs = append(j.recs, rec)
	noteJournal(journalOpAppended)
	return nil
}

// Records returns a copy of every intact record, recovered and
// appended, in journal order.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.recs...)
}

// SkippedBytes reports how many bytes of torn trailing data the open
// discarded — nonzero exactly when the previous process died mid-append.
func (j *Journal) SkippedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.skipped
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the journal file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
