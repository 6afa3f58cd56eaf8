package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenJournal feeds arbitrary bytes to journal recovery as jobs.wal.
// Whatever a crash or a hand edit leaves on disk, OpenJournal must not
// panic or fail, must return only records with an ID, and must compact
// the file so that reopening it yields the same pending set, in the same
// order, with nothing left to drop. Seeds live in
// testdata/fuzz/FuzzOpenJournal.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, first, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		j.Close()
		for _, r := range first {
			if r.ID == "" {
				t.Fatalf("pending record with an empty ID: %+v", r)
			}
		}

		j2, second, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening the compacted journal: %v", err)
		}
		defer j2.Close()
		if j2.Torn() != 0 {
			t.Fatalf("compacted journal has %d torn lines", j2.Torn())
		}
		if len(first) != len(second) {
			t.Fatalf("reopen: %d pending, want %d", len(second), len(first))
		}
		for i := range first {
			a, b := first[i], second[i]
			if a.ID != b.ID || a.Priority != b.Priority || canonical(t, a.Config) != canonical(t, b.Config) {
				t.Fatalf("reopen: pending[%d] = %+v, want %+v", i, b, a)
			}
		}
	})
}

// canonical is the form json.Marshal writes a record's config in, which
// is what compaction stores: compacted, HTML-escaped, and "null" for a
// missing config.
func canonical(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	if raw == nil {
		return "null"
	}
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatalf("config %q does not re-encode: %v", raw, err)
	}
	return string(out)
}
