package main

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"strings"

	"ptbsim"
	"ptbsim/internal/core"
	"ptbsim/internal/metrics"
	"ptbsim/internal/sim"
	"ptbsim/internal/workload"
)

// expectedFS holds the pinned per-cell digests each workload checks its
// results against: full digest lines, or for serve-mixed's large fresh
// pool just the sha fragment, which hashes the full line. They are taken at the default settings the tools run
// with (invariants off) by `perfbench pin`; see README.md.
//
//go:embed expected/*.txt
var expectedFS embed.FS

// digestSet maps a key to a full digest line: a configuration's configID
// in the pinned files, its label ("fft/4/ptb/Dynamic") in the golden
// matrices.
type digestSet map[string]string

// label is the configuration label a digest line starts with.
func label(digest string) string {
	l, _, _ := strings.Cut(digest, " ")
	return l
}

// parseDigests reads digest lines, skipping blanks and # comments. With
// keyed set, each line is "<key>\t<digest>"; otherwise the digest's label
// is its key.
func parseDigests(name, text string, keyed bool) (digestSet, error) {
	set := make(digestSet)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest := label(line), line
		if keyed {
			var ok bool
			if key, digest, ok = strings.Cut(line, "\t"); !ok {
				return nil, fmt.Errorf("%s: line without a key: %q", name, line)
			}
		}
		if _, dup := set[key]; dup {
			return nil, fmt.Errorf("%s: duplicate digest for %s", name, key)
		}
		set[key] = digest
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no digests", name)
	}
	return set, nil
}

// loadExpected reads one of the benchmark's pinned digest files.
func loadExpected(name string) (digestSet, error) {
	data, err := expectedFS.ReadFile("expected/" + name)
	if err != nil {
		return nil, err
	}
	return parseDigests(name, string(data), true)
}

// loadGolden reads a committed golden matrix from the repository checkout.
func loadGolden(path string) (digestSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseDigests(path, string(data), false)
}

// modelFields are the digest fields the committed golden matrices pin for
// the simulated model itself. The coh= and noc= totals are left out: the
// golden files were taken with invariants on, whose final quiescent drain
// delivers in-flight messages and so moves those counts.
var modelFields = []string{"cycles", "committed", "energy", "aopb", "tokens", "rounds"}

// digestFields splits a digest line into its key=value fields.
func digestFields(digest string) map[string]string {
	out := make(map[string]string)
	for _, f := range strings.Fields(digest) {
		if k, v, ok := strings.Cut(f, "="); ok {
			out[k] = v
		}
	}
	return out
}

// checker validates results against the pinned digests and, where a
// golden matrix covers the cell, against its model fields.
type checker struct {
	expected digestSet
	golden   digestSet // nil when no golden matrix covers the workload
}

// configID is the key a configuration's pinned digest is filed under.
// It names every field the workloads vary.
func configID(c ptbsim.Config) string {
	return fmt.Sprintf("%s/%d/%s/%s budget=%g scale=%g cluster=%d",
		c.Benchmark, c.Cores, c.Technique, c.Policy, c.BudgetFrac, c.WorkloadScale, c.PTBClusterSize)
}

// check returns nil when r, the answer for cfg, matches everything pinned
// for cfg.
func (c *checker) check(cfg ptbsim.Config, r *ptbsim.Result) error {
	if r == nil {
		return fmt.Errorf("no result")
	}
	id := configID(cfg)
	want, ok := c.expected[id]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", id)
	}
	got := r.Digest()
	if !strings.Contains(want, " ") {
		// A bare sha fragment pins the whole line through its hash.
		got = fragment(got)
	}
	if got != want {
		return fmt.Errorf("%s: digest mismatch:\n  got  %s\n  want %s", id, got, want)
	}
	l := label(got)
	if c.golden == nil {
		return nil
	}
	g, ok := c.golden[l]
	if !ok {
		return fmt.Errorf("%s: not in the golden matrix", l)
	}
	gf, rf := digestFields(g), digestFields(got)
	for _, k := range modelFields {
		if gf[k] != rf[k] {
			return fmt.Errorf("%s: %s=%s, golden matrix has %s", l, k, rf[k], gf[k])
		}
	}
	return nil
}

// simConfig lowers a public configuration to the simulator's, so traced
// passes can call sim.NewSystem themselves and time it. Results are
// checked against the same pinned digests as the public path's, which
// proves the lowering faithful.
func simConfig(c ptbsim.Config) (sim.Config, error) {
	spec, ok := workload.ByName(c.Benchmark)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown benchmark %q", c.Benchmark)
	}
	pol := core.PolicyToAll
	switch c.Policy {
	case ptbsim.ToOne:
		pol = core.PolicyToOne
	case ptbsim.Dynamic:
		pol = core.PolicyDynamic
	}
	tech := sim.Technique(c.Technique)
	if tech == "" {
		tech = sim.TechNone
	}
	return sim.Config{
		Benchmark:      spec,
		Cores:          c.Cores,
		Technique:      tech,
		Policy:         pol,
		RelaxFrac:      c.RelaxFrac,
		BudgetFrac:     c.BudgetFrac,
		WorkloadScale:  c.WorkloadScale,
		MaxCycles:      c.MaxCycles,
		PTBClusterSize: c.PTBClusterSize,
	}, nil
}

// resultOf carries a simulator result into the public type, filling the
// fields the digest covers.
func resultOf(r *metrics.RunResult) *ptbsim.Result {
	return &ptbsim.Result{
		Benchmark:        r.Benchmark,
		Cores:            r.Cores,
		Technique:        ptbsim.Technique(r.Technique),
		Policy:           r.Policy,
		Cycles:           r.Cycles,
		Committed:        r.Committed,
		EnergyJ:          r.EnergyJ,
		AoPBJ:            r.AoPBJ,
		TokenDonatedPJ:   r.TokenDonatedPJ,
		TokenGrantedPJ:   r.TokenGrantedPJ,
		TokenDiscardedPJ: r.TokenDiscardedPJ,
		BalanceRounds:    r.BalanceRounds,
		CohGetS:          r.CohGetS,
		CohGetX:          r.CohGetX,
		CohPut:           r.CohPut,
		CohFwd:           r.CohFwd,
		CohInv:           r.CohInv,
		NoCMessages:      r.NoCMessages,
		NoCFlits:         r.NoCFlits,
	}
}
