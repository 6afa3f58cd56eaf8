package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openJ(t *testing.T, path string) (*Journal, []JournalRecord) {
	t.Helper()
	j, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, pending
}

func rec(id string) JournalRecord {
	return JournalRecord{ID: id, Config: json.RawMessage(`{"benchmark":"fft"}`), Priority: 1}
}

func TestJournalAcceptReplayDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, pending := openJ(t, path)
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := j.Accept(rec(id)); err != nil {
			t.Fatal(err)
		}
	}
	j.Done("b")
	if j.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", j.Pending())
	}
	j.Close()

	// The reboot: replay must surface exactly a and c, in acceptance order.
	j2, pending := openJ(t, path)
	if len(pending) != 2 || pending[0].ID != "a" || pending[1].ID != "c" {
		t.Fatalf("replayed pending = %+v, want [a c]", pending)
	}
	if pending[0].Priority != 1 || string(pending[0].Config) != `{"benchmark":"fft"}` {
		t.Fatalf("record payload lost in replay: %+v", pending[0])
	}
	if j2.Torn() != 0 {
		t.Fatalf("clean journal reported %d torn lines", j2.Torn())
	}
}

func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _ := openJ(t, path)
	if err := j.Accept(rec("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(rec("b")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, pending := openJ(t, path)
	if len(pending) != 2 {
		t.Fatalf("torn tail dropped complete records: pending = %+v", pending)
	}
	if j2.Torn() != 1 {
		t.Fatalf("Torn() = %d, want 1", j2.Torn())
	}
}

func TestJournalCompactsOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _ := openJ(t, path)
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := j.Accept(rec(id)); err != nil {
			t.Fatal(err)
		}
		j.Done(id)
	}
	if err := j.Accept(rec("live")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, pending := openJ(t, path)
	if len(pending) != 1 || pending[0].ID != "live" {
		t.Fatalf("pending = %+v, want [live]", pending)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("compacted journal holds %d lines, want 1:\n%s", n, data)
	}
}

func TestJournalDuplicateAcceptCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _ := openJ(t, path)
	if err := j.Accept(rec("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(rec("a")); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", j.Pending())
	}
	j.Close()
	_, pending := openJ(t, path)
	if len(pending) != 1 {
		t.Fatalf("pending = %+v, want one record", pending)
	}
}

// TestJournalDoneShuffledKeepsOrder drains half of a deep journal in
// shuffled order — the pattern of a large sweep completing out of order —
// and checks that the other half comes back in acceptance order on
// reopen.
func TestJournalDoneShuffledKeepsOrder(t *testing.T) {
	const n = 10_000
	path := filepath.Join(t.TempDir(), "jobs.wal")
	// Write the accepts directly: n fsync'd Accept calls would only
	// measure the disk.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("job-%05d", i)
		if err := enc.Encode(journalLine{Op: "accept", JournalRecord: rec(ids[i])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	j, pending := openJ(t, path)
	if len(pending) != n {
		t.Fatalf("opened %d pending, want %d", len(pending), n)
	}
	perm := rand.New(rand.NewSource(1)).Perm(n)
	done := make(map[string]bool, n/2)
	for _, i := range perm[:n/2] {
		j.Done(ids[i])
		done[ids[i]] = true
	}
	if j.Pending() != n-n/2 {
		t.Fatalf("Pending() = %d, want %d", j.Pending(), n-n/2)
	}
	j.Close()

	_, pending = openJ(t, path)
	var want []string
	for _, id := range ids {
		if !done[id] {
			want = append(want, id)
		}
	}
	if len(pending) != len(want) {
		t.Fatalf("reopened %d pending, want %d", len(pending), len(want))
	}
	for i, r := range pending {
		if r.ID != want[i] {
			t.Fatalf("pending[%d] = %s, want %s (acceptance order lost)", i, r.ID, want[i])
		}
	}
}

// TestQuarantineAccounting pins the recovery bookkeeping of Open: a
// store with one good, one tampered and one misnamed entry serves
// exactly the good one, quarantines the other two as *.corrupt with
// reason sidecars, and a re-Open sees a clean directory (nothing is
// re-examined or double-counted).
func TestQuarantineAccounting(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := runOne(t, "fft")
	s.Put("key-good", good)
	s.Put("key-bad", runOne(t, "radix"))

	names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(names) != 2 {
		t.Fatalf("want 2 entry files, got %v", names)
	}
	badName := filepath.Join(dir, fileName("key-bad"))
	data, err := os.ReadFile(badName)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"cycles":`, `"cycles":9`, 1)
	if err := os.WriteFile(badName, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("cd", 32)+".json"), []byte(`{"key":"x","result":null}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s2.Len())
	}
	if got, ok := s2.Get("key-good"); !ok || got.Digest() != good.Digest() {
		t.Fatal("good entry lost during quarantine")
	}
	if len(s2.Rejected()) != 2 {
		t.Fatalf("Rejected() = %v, want 2", s2.Rejected())
	}
	corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(corrupt) != 2 {
		t.Fatalf("quarantined files = %v, want 2", corrupt)
	}
	for _, c := range corrupt {
		reason, err := os.ReadFile(c + ".reason")
		if err != nil || len(reason) == 0 {
			t.Fatalf("missing reason sidecar for %s: %v", c, err)
		}
	}

	// Third open: the quarantined files are out of the *.json namespace,
	// so recovery accounting starts clean.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 1 || len(s3.Rejected()) != 0 {
		t.Fatalf("re-open after quarantine: Len=%d Rejected=%v", s3.Len(), s3.Rejected())
	}
}
