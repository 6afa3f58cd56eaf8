package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ptbsim/internal/core"
	"ptbsim/internal/metrics"
)

// storeCell names one sweep cell for the store tests.
type storeCell struct {
	bench string
	cores int
	tech  Technique
	pol   core.Policy
}

var storeCells = []storeCell{
	{"fft", 2, TechNone, core.PolicyToAll},
	{"fft", 2, TechPTB, core.PolicyDynamic},
	{"radix", 2, TechDVFS, core.PolicyToAll},
}

// storeRunner is a small runner on the cell store at dir. Its Progress
// buffer receives one line per fresh simulation and nothing for a cell
// served from the store.
func storeRunner(t *testing.T, dir string) (*Runner, *RunStore, *bytes.Buffer) {
	t.Helper()
	r := NewRunner(0.02)
	r.MaxCycles = 10_000_000
	st, err := r.SetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	r.Progress = &progress
	return r, st, &progress
}

func runCells(t *testing.T, r *Runner) []*metrics.RunResult {
	t.Helper()
	out := make([]*metrics.RunResult, len(storeCells))
	for i, c := range storeCells {
		res, err := r.RunContext(context.Background(), c.bench, c.cores, c.tech, c.pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func TestRunStoreServesRestartedRunner(t *testing.T) {
	dir := t.TempDir()
	r1, st1, progress1 := storeRunner(t, dir)
	first := runCells(t, r1)
	if progress1.Len() == 0 {
		t.Fatal("first runner reported no fresh simulations")
	}
	if err := st1.Err(); err != nil {
		t.Fatal(err)
	}

	r2, st2, progress2 := storeRunner(t, dir)
	if st2.Len() != len(storeCells) || st2.Rejected() != 0 {
		t.Fatalf("reopened store: %d cells, %d rejected; want %d, 0", st2.Len(), st2.Rejected(), len(storeCells))
	}
	second := runCells(t, r2)
	if progress2.Len() != 0 {
		t.Fatalf("second runner simulated cells it should have read from disk:\n%s", progress2)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("cell %v: stored result differs from the fresh one", storeCells[i])
		}
	}
}

func TestRunStoreRejectsDamagedCells(t *testing.T) {
	dir := t.TempDir()
	r1, _, _ := storeRunner(t, dir)
	runCells(t, r1)

	c0, c1 := storeCells[0], storeCells[1]
	key0 := r1.key(c0.bench, c0.cores, c0.tech, c0.pol, 0)
	key1 := r1.key(c1.bench, c1.cores, c1.tech, c1.pol, 0)
	path0 := filepath.Join(dir, cellFileName(key0))
	path1 := filepath.Join(dir, cellFileName(key1))

	// Truncate cell 0 mid-JSON.
	data0, err := os.ReadFile(path0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path0, data0[:len(data0)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Put cell 0's valid contents, embedded key and all, under cell 1's
	// file name.
	if err := os.WriteFile(path1, data0, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, st2, progress2 := storeRunner(t, dir)
	if got := st2.Rejected(); got != 2 {
		t.Fatalf("Rejected() = %d, want 2 (truncated + key mismatch)", got)
	}
	for _, k := range []string{key0, key1} {
		if _, ok := st2.Get(k); ok {
			t.Errorf("damaged cell %q served from the store", k)
		}
	}
	// The damaged cells are recomputed; the intact one is not.
	runCells(t, r2)
	if got := bytes.Count(progress2.Bytes(), []byte("\n")); got != 2 {
		t.Fatalf("fresh simulations after damage = %d, want 2:\n%s", got, progress2)
	}
}
