package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Journal is a write-ahead log of accepted jobs: the piece that makes
// "accepted" mean "durable". The server appends one fsync'd record per
// accepted submission that must simulate before acknowledging it (a
// cache hit is already complete and is not journaled), and a completion
// record when the result lands in the store; a SIGKILL'd process therefore
// reboots, replays the journal, and finds exactly the set of jobs that
// were accepted but not yet completed — zero accepted jobs are ever
// lost. The log is JSONL (one record per line) and torn-tail tolerant:
// a crash mid-append leaves at most one partial last line, which is
// dropped and counted rather than tripping recovery. Open compacts the
// log to just the pending records, so it never grows without bound.
type Journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	pending map[string]pendingRecord
	seq     uint64 // acceptance counter; orders pending records
	torn    int
	err     error // first append failure, latched
}

// pendingRecord is an accepted record with its acceptance sequence
// number, so Done is a map delete and the acceptance order is recovered
// by sorting only when it is needed (at open).
type pendingRecord struct {
	JournalRecord
	seq uint64
}

// JournalRecord is one accepted job: an opaque request payload under a
// caller-chosen ID (the serve layer uses its cache keys, so replaying a
// record that did complete is a harmless cache hit).
type JournalRecord struct {
	// ID identifies the job across accept and done records.
	ID string `json:"id"`
	// Config is the accepted request payload, replayed verbatim on boot.
	Config json.RawMessage `json:"config"`
	// Priority is the accepted submission's priority.
	Priority int `json:"priority,omitempty"`
}

// journalLine is the on-disk form: an op tag around a record.
type journalLine struct {
	Op string `json:"op"` // "accept" | "done"
	JournalRecord
}

// OpenJournal opens (creating if needed) the journal at path, replays
// it, compacts it down to the still-pending records, and returns those
// records in acceptance order — the jobs a recovering server must
// resubmit.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	j := &Journal{path: path, pending: make(map[string]pendingRecord)}

	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// A crash mid-append: at most one torn line at the tail. Every
			// complete record before it stands.
			j.torn++
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		var rec journalLine
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			j.torn++
			continue
		}
		switch rec.Op {
		case "accept":
			p, ok := j.pending[rec.ID]
			if !ok {
				j.seq++
				p.seq = j.seq
			}
			p.JournalRecord = rec.JournalRecord
			j.pending[rec.ID] = p
		case "done":
			delete(j.pending, rec.ID)
		default:
			j.torn++
		}
	}

	// Compact: rewrite just the pending accepts in acceptance order,
	// atomically, then append from there.
	ordered := make([]pendingRecord, 0, len(j.pending))
	for _, p := range j.pending {
		ordered = append(ordered, p)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
	out := make([]JournalRecord, len(ordered))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, p := range ordered {
		out[i] = p.JournalRecord
		if err := enc.Encode(journalLine{Op: "accept", JournalRecord: p.JournalRecord}); err != nil {
			return nil, nil, fmt.Errorf("store: journal: %w", err)
		}
	}
	if err := writeAtomic(filepath.Dir(path), filepath.Base(path), buf.Bytes()); err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	j.f = f
	return j, out, nil
}

// Accept journals an accepted job durably: the record is appended and
// fsync'd before Accept returns, so an acknowledgment sent after it can
// never refer to a job a crash would forget. An ID already pending is a
// no-op (a coalesced resubmission).
func (j *Journal) Accept(rec JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, ok := j.pending[rec.ID]; ok {
		return nil
	}
	if err := j.append(journalLine{Op: "accept", JournalRecord: rec}, true); err != nil {
		return err
	}
	j.seq++
	j.pending[rec.ID] = pendingRecord{JournalRecord: rec, seq: j.seq}
	return nil
}

// Done journals a job's completion. Best-effort by design: losing a
// done record only means the job is replayed on the next boot, where it
// resolves as a cache hit — degraded, never wrong — so Done appends
// without fsync and swallows failures into the latched Err. Done is O(1)
// in the number of pending records.
func (j *Journal) Done(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.pending[id]; !ok {
		return
	}
	delete(j.pending, id)
	_ = j.append(journalLine{Op: "done", JournalRecord: JournalRecord{ID: id}}, false)
}

// append writes one record line, optionally fsync'd; the first failure
// latches. Callers hold mu.
func (j *Journal) append(line journalLine, sync bool) error {
	data, err := json.Marshal(line)
	if err == nil {
		_, err = j.f.Write(append(data, '\n'))
	}
	if err == nil && sync {
		err = j.f.Sync()
	}
	if err != nil {
		if j.err == nil {
			j.err = fmt.Errorf("store: journal degraded: %w", err)
		}
		return j.err
	}
	return nil
}

// Pending reports the number of accepted-but-not-completed jobs.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Torn reports how many unparseable lines were dropped at open (at most
// one from a torn tail, plus any hand-edited damage).
func (j *Journal) Torn() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.torn
}

// Err reports the first append failure, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close releases the journal's file handle.
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
