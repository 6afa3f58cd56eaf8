package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"ptbsim"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A metric whose layer the workload never reaches reads 0.
var perLayer = func() [][2]string {
	var out [][2]string
	for _, l := range layers {
		out = append(out, [2]string{l + ".ns_per_core_cycle", "ns/core-cycle"})
	}
	return append(out,
		[2]string{"sim.fast_cycle_frac", "frac"},
		[2]string{"sim.new_ms", "ms"},
		[2]string{"sched.cpu_util", "frac"},
		[2]string{"sched.coalesced_frac", "frac"},
		[2]string{"runtime.gc_cpu_frac", "frac"},
		[2]string{"runtime.alloc_bytes_per_cycle", "B/cycle"},
		[2]string{"serve.hit_self_us_p50", "us"},
		[2]string{"store.get_us_p50", "us"},
		[2]string{"store.put_us_p50", "us"},
		[2]string{"store.hit_frac", "frac"},
		[2]string{"store.journal_bytes_per_req", "B/req"},
		[2]string{"sim.cycles", "count"},
		[2]string{"cpu.committed", "count"},
		[2]string{"cache.coh_txns", "count"},
		[2]string{"mesh.flits", "count"},
		[2]string{"core.balance_rounds", "count"},
		[2]string{"trace.overhead_frac", "frac"},
	)
}()

// runtimeCounters reads the Go runtime's cumulative GC CPU seconds and
// allocated heap bytes.
func runtimeCounters() (gcCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocBytes
}

// measureTraced splits d between untraced reference passes and traced
// passes, and fills rec with the per-layer metrics. The traced passes run
// under a CPU profile, folded by package afterwards; their spans are
// written next to the run records.
func measureTraced(ctx context.Context, w bench, rec *record, d time.Duration) error {
	cpu0 := cpuSeconds()
	t0 := time.Now()
	refs, err := passesFor(ctx, w, rec, nil, d/2)
	if err != nil {
		return err
	}
	cpuUtil := (cpuSeconds() - cpu0) / (time.Since(t0).Seconds() * float64(w.parallelism()))

	tr := newTracer()
	var prof bytes.Buffer
	gc0, alloc0 := runtimeCounters()
	cpu1 := cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	traced, err := passesFor(ctx, w, rec, tr, d/2)
	pprof.StopCPUProfile()
	cpuTraced := cpuSeconds() - cpu1
	gc1, alloc1 := runtimeCounters()
	if err != nil {
		return err
	}
	extra, errs := w.layerMetrics(ctx, tr, traced)
	rec.Summary.Attempted += len(errs)
	rec.Summary.Failed += len(errs)
	rec.errs = append(rec.errs, errs...)

	byFunc, err := selfByFunction(prof.Bytes())
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	folded := foldByLayer(byFunc)
	var fresh []*ptbsim.Result
	for _, ps := range traced {
		fresh = append(fresh, ps.fresh...)
	}
	all := workOf(fresh)
	for _, l := range layers {
		rec.set(l+".ns_per_core_cycle", ratio(float64(folded[l]), float64(all.CoreCycles)), "ns/core-cycle")
	}
	m := map[string]float64{
		"sched.cpu_util":                cpuUtil,
		"runtime.gc_cpu_frac":           ratio(gc1-gc0, cpuTraced),
		"runtime.alloc_bytes_per_cycle": ratio(alloc1-alloc0, float64(all.Cycles)),
		"trace.overhead_frac":           medianWall(traced)/medianWall(refs) - 1,
	}
	for k, v := range extra {
		m[k] = v
	}
	for _, pl := range perLayer {
		if _, ok := rec.Summary.Metrics[pl[0]]; !ok {
			rec.set(pl[0], m[pl[0]], pl[1])
		}
	}
	path := filepath.Join(benchDir(), fmt.Sprintf("spans-%s-seed%d.json", rec.Workload, rec.Seed))
	if err := tr.writeFile(path); err != nil {
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	return nil
}

// medianWall is the median pass wall time in seconds.
func medianWall(passes []passStats) float64 {
	var xs []float64
	for _, ps := range passes {
		xs = append(xs, ps.wall.Seconds())
	}
	return median(xs)
}

// medianOr0 is median, reading 0 for no samples.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
