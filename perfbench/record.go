package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// provenance says which code ran where. Two records compare only when
// every host field matches.
type provenance struct {
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	Host       string `json:"host"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Time       string `json:"time"`
}

func hostProvenance() provenance {
	host, _ := os.Hostname() // empty when unknown; still compared
	return provenance{
		Commit:     gitCommit("."),
		SourceSHA:  sourceSHA("."),
		Host:       host,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// hostMismatch lists the host fields on which two records differ.
func hostMismatch(a, b provenance) []string {
	var out []string
	check := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	check("host", a.Host, b.Host)
	check("cpu_model", a.CPUModel, b.CPUModel)
	check("nproc", a.NProc, b.NProc)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("go_version", a.GoVersion, b.GoVersion)
	check("os_arch", a.OSArch, b.OSArch)
	return out
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (the benchmark may run
// in a checkout that is not a repository, where it reports "unknown").
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceSHA fingerprints the source the benchmark was built from: every
// .go file, go.mod and committed golden file under root, by path and
// content. It identifies the code where no commit is available.
func sourceSHA(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the fingerprint
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, the build directory
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasPrefix(p, filepath.Join(root, "testdata", "golden")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is everything one run measured, saved as JSON next to the
// build. The summary is what the run prints.
type record struct {
	Workload   string                    `json:"workload"`
	Seed       int64                     `json:"seed"`
	Seconds    int                       `json:"seconds"`
	Trace      int                       `json:"trace"`
	Provenance provenance                `json:"provenance"`
	SetupS     []float64                 `json:"setup_s"`
	Passes     []float64                 `json:"pass_s,omitempty"`
	PassSteal  []float64                 `json:"pass_steal_s,omitempty"`
	PassesUsed int                       `json:"passes_used,omitempty"` // by the end-to-end metrics
	Latency    latencySummary            `json:"latency_ms"`
	ByClass    map[string]latencySummary `json:"latency_ms_by_class,omitempty"`
	Summary    summary                   `json:"summary"`

	errs []error
}

func newRecord() *record {
	return &record{Provenance: hostProvenance(), Summary: summary{Metrics: make(map[string]metric)}}
}

func (r *record) set(name string, v float64, unit string) {
	r.Summary.Metrics[name] = metric{Value: v, Unit: unit}
}

// count tallies finished operations.
func (r *record) count(ops []op) {
	for _, o := range ops {
		r.Summary.Attempted++
		if o.err != nil {
			r.Summary.Failed++
			r.errs = append(r.errs, o.err)
		}
	}
}

// finish settles correctness and reports failures on standard error.
func (r *record) finish() {
	r.Summary.Correct = r.Summary.Failed == 0 && r.Summary.Attempted > 0
	firstErrors(r.errs, 5)
}

// save writes the record under the build directory.
func (r *record) save() error {
	dir := filepath.Join(benchDir(), "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, r.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// compareMain compares the metrics of two saved run records. It refuses
// records from different hosts, workloads or modes: such a comparison
// says nothing about the code.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.json NEW.json")
	}
	var recs [2]record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := recs[0], recs[1]
	if diff := hostMismatch(a.Provenance, b.Provenance); len(diff) > 0 {
		return fmt.Errorf("perfbench: refusing to compare runs from different hosts (%s)", strings.Join(diff, "; "))
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("perfbench: refusing to compare %s/trace%d/%ds with %s/trace%d/%ds",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	fmt.Printf("%s  %s (%s) -> %s (%s)\n", a.Workload, a.Provenance.Commit, a.Provenance.SourceSHA[:12],
		b.Provenance.Commit, b.Provenance.SourceSHA[:12])
	for _, name := range sortedKeys(a.Summary.Metrics) {
		m, ok := b.Summary.Metrics[name]
		if !ok {
			continue
		}
		old := a.Summary.Metrics[name].Value
		fmt.Printf("  %-34s %14.6g -> %14.6g %-12s %+7.2f%%\n", name, old, m.Value, m.Unit, 100*ratio(m.Value-old, old))
	}
	return nil
}
