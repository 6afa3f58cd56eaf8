package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ptbsim"
	"ptbsim/internal/sim"
)

// simOutcome is one simulation run through simDirect.
type simOutcome struct {
	res  *ptbsim.Result
	fast int64 // skip-ahead cycles, read from the sim.System
}

// simDirect runs one configuration through the simulator package rather
// than the public API, timing sim.NewSystem and the run loop as spans, so
// it can report the set-up time and skip-ahead share the public API does
// not expose. The pinned digests check it like any other path.
func simDirect(ctx context.Context, cfg ptbsim.Config, tr *tracer) (simOutcome, error) {
	scfg, err := simConfig(cfg)
	if err != nil {
		return simOutcome{}, err
	}
	t0 := tr.now()
	sys, err := sim.NewSystem(scfg)
	t1 := tr.now()
	tr.record(span{Name: "sim.NewSystem", Start: t0, End: t1})
	if err != nil {
		return simOutcome{}, err
	}
	r, err := sys.RunContext(ctx)
	tr.record(span{Name: "sim.Run", Start: t1, End: tr.now()})
	if err != nil {
		return simOutcome{}, err
	}
	return simOutcome{res: resultOf(r), fast: sys.FastCycles()}, nil
}

// resimulate runs cfgs again through simDirect on `workers` goroutines,
// after the traced passes and outside their profile, and reports what only
// that path can read: the work counts, the skip-ahead share and the
// sim.NewSystem time. It also returns the checks that failed.
func resimulate(ctx context.Context, cfgs []ptbsim.Config, workers int, chk *checker, tr *tracer) (map[string]float64, []error) {
	outs := make([]simOutcome, len(cfgs))
	errs := make([]error, len(cfgs))
	forEach(len(cfgs), workers, func(i int) { outs[i], errs[i] = simDirect(ctx, cfgs[i], tr) })
	var failed []error
	var res []*ptbsim.Result
	var fast int64
	for i, o := range outs {
		if errs[i] == nil {
			errs[i] = chk.check(cfgs[i], o.res)
		}
		if errs[i] != nil {
			failed = append(failed, errs[i])
			continue
		}
		res = append(res, o.res)
		fast += o.fast
	}
	wc := workOf(res)
	m := wc.metrics()
	m["sim.fast_cycle_frac"] = ratio(float64(fast), float64(wc.Cycles))
	m["sim.new_ms"] = medianOr0(tr.durationsUS("sim.NewSystem")) / 1e3
	return m, failed
}

// forEach calls fn(0) … fn(n-1) on `workers` goroutines and returns when
// all calls have.
func forEach(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// matrixWorkload is a fixed list of cells, each checked against its
// pinned digest and the committed golden matrix. Every pass runs the whole
// list in a seeded order: chip64 one cell after another through
// ptbsim.RunContext, golden4 as one Experiment.RunAll on two workers.
type matrixWorkload struct {
	cfgs    []ptbsim.Config
	workers int
	batch   bool            // one Experiment.RunAll per pass, else serial RunContext
	warmUp  []ptbsim.Config // run once before the set-ups, untimed
	rng     *rand.Rand

	expectedFile, goldenFile string
	chk                      *checker
}

func newChip64(seed int64) *matrixWorkload {
	var cfgs []ptbsim.Config
	for _, b := range []string{"ocean", "fft"} {
		cfgs = append(cfgs,
			ptbsim.Config{Benchmark: b, Cores: 64, Technique: ptbsim.None, WorkloadScale: 0.01},
			ptbsim.Config{Benchmark: b, Cores: 64, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic,
				PTBClusterSize: 16, WorkloadScale: 0.01})
	}
	return &matrixWorkload{
		cfgs: cfgs, workers: 1,
		// One cell of the same chip size (64-core runs do not get shorter
		// below scale 0.01), so the first timed cell pays no heap growth.
		warmUp:       []ptbsim.Config{cfgs[0]},
		rng:          rand.New(rand.NewSource(seed)),
		expectedFile: "chip64.txt",
		goldenFile:   "testdata/golden/matrix_bigchip.txt",
	}
}

func newGolden4(seed int64) *matrixWorkload {
	var cfgs []ptbsim.Config
	for _, b := range ptbsim.Benchmarks() {
		for _, t := range ptbsim.TechniqueNames() {
			cfgs = append(cfgs, ptbsim.Config{Benchmark: b.Name, Cores: 4,
				Technique: ptbsim.Technique(t), Policy: ptbsim.Dynamic, WorkloadScale: 0.25})
		}
	}
	cfgs = normalizePolicy(cfgs)
	return &matrixWorkload{
		cfgs: cfgs, workers: 2, batch: true,
		// One PTB and one DVFS cell, one per worker.
		warmUp:       []ptbsim.Config{cfgs[4], cfgs[1]},
		rng:          rand.New(rand.NewSource(seed)),
		expectedFile: "golden4.txt",
		goldenFile:   "testdata/golden/matrix_scale025.txt",
	}
}

// normalizePolicy clears the PTB-only fields on other techniques, as
// Experiment does, so every path runs and pins the same configuration.
func normalizePolicy(cfgs []ptbsim.Config) []ptbsim.Config {
	for i := range cfgs {
		if t := cfgs[i].Technique; t != ptbsim.PTB && t != ptbsim.PTBSpinGate {
			cfgs[i].Policy = ptbsim.ToAll
			cfgs[i].PTBClusterSize = 0
		}
	}
	return cfgs
}

// cellName names a cell uniquely within one matrix.
func cellName(c ptbsim.Config) string {
	return fmt.Sprintf("%s/%d/%s", c.Benchmark, c.Cores, c.Technique)
}

func (w *matrixWorkload) parallelism() int { return w.workers }

// prepare loads the pinned digests and the golden matrix, then runs and
// checks the warm-up cells the way a pass runs its cells.
func (w *matrixWorkload) prepare(ctx context.Context) error {
	exp, err := loadExpected(w.expectedFile)
	if err != nil {
		return err
	}
	gold, err := loadGolden(w.goldenFile)
	if err != nil {
		return err
	}
	w.chk = &checker{expected: exp, golden: gold}
	for _, c := range w.cfgs {
		if _, ok := exp[configID(c)]; !ok {
			return fmt.Errorf("%s: no pinned digest for %s", w.expectedFile, configID(c))
		}
	}
	results, _, errs, err := w.runCells(ctx, w.warmUp, nil)
	if err != nil {
		return err
	}
	for i, c := range w.warmUp {
		if errs[i] == nil {
			errs[i] = w.chk.check(c, results[i])
		}
	}
	return errors.Join(errs...)
}

// setup builds every cell's simulator once, unrun: a configuration that
// cannot be built fails here rather than mid-pass, and the simulator's
// own set-up cost is what setup_s measures.
func (w *matrixWorkload) setup(context.Context) error {
	for _, c := range w.cfgs {
		scfg, err := simConfig(c)
		if err != nil {
			return err
		}
		if _, err := sim.NewSystem(scfg); err != nil {
			return fmt.Errorf("%s: %w", configID(c), err)
		}
	}
	return nil
}

func (w *matrixWorkload) pass(ctx context.Context, tr *tracer) (passStats, error) {
	cfgs := append([]ptbsim.Config(nil), w.cfgs...)
	w.rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	var ps passStats
	start := time.Now()
	results, lat, errs, err := w.runCells(ctx, cfgs, tr)
	ps.wall = time.Since(start)
	if err != nil {
		return ps, err
	}
	for i, c := range cfgs {
		err := errs[i]
		if err == nil {
			err = w.chk.check(c, results[i])
		}
		ps.ops = append(ps.ops, op{ms: float64(lat[i]) / 1e6, class: classFresh, err: err})
		if err == nil {
			ps.fresh = append(ps.fresh, results[i])
		}
	}
	return ps, nil
}

// runCells runs cfgs through the public API: one Experiment.RunAll on the
// workload's workers, or one ptbsim.RunContext after another. errs holds
// each cell's own failure, err one that stopped the whole run. A cell's
// latency is its run time when serial, and in a batch the time from the
// start of the sweep until its result arrived, which is what a user
// waiting on the matrix sees.
func (w *matrixWorkload) runCells(ctx context.Context, cfgs []ptbsim.Config, tr *tracer) (results []*ptbsim.Result, lat []time.Duration, errs []error, err error) {
	lat = make([]time.Duration, len(cfgs))
	errs = make([]error, len(cfgs))
	if !w.batch {
		results = make([]*ptbsim.Result, len(cfgs))
		for i, c := range cfgs {
			t0, s0 := time.Now(), tr.now()
			results[i], errs[i] = ptbsim.RunContext(ctx, c)
			tr.record(span{Name: "ptbsim.RunContext", Key: cellName(c), Start: s0, End: tr.now()})
			lat[i] = time.Since(t0)
		}
		return results, lat, errs, nil
	}
	start, s0 := time.Now(), tr.now()
	var mu sync.Mutex
	done := make(map[string]time.Duration, len(cfgs))
	e := ptbsim.NewExperiment(ptbsim.WithParallelism(w.workers),
		ptbsim.WithProgress(func(p ptbsim.Progress) {
			mu.Lock()
			done[cellName(p.Config)] = time.Since(start)
			mu.Unlock()
		}))
	results, err = e.RunAll(ctx, cfgs)
	e.Close()
	tr.record(span{Name: "ptbsim.Experiment.RunAll", Start: s0, End: tr.now()})
	var se *ptbsim.SweepError
	switch {
	case errors.As(err, &se):
		for _, f := range se.Failures {
			errs[f.Index] = f.Err
		}
	case err != nil:
		return nil, nil, nil, err
	}
	for i, c := range cfgs {
		lat[i] = done[cellName(c)]
	}
	return results, lat, errs, nil
}

// layerMetrics re-runs the matrix directly through the simulator package,
// after the profile has stopped.
func (w *matrixWorkload) layerMetrics(ctx context.Context, tr *tracer, _ []passStats) (map[string]float64, []error) {
	return resimulate(ctx, w.cfgs, w.workers, w.chk, tr)
}

func (w *matrixWorkload) cleanup() {}
