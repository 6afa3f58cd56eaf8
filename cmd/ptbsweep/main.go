// Command ptbsweep regenerates the paper's tables and figures as text
// tables. Each experiment is identified by its paper artifact id. Runs
// execute on the parallel experiment engine: `-par N` bounds the worker
// pool (simulations are deterministic, so the output is byte-identical at
// any parallelism), and SIGINT cancels the sweep cleanly mid-run instead
// of completing the cross-product.
//
// Usage:
//
//	ptbsweep -exp fig2                 # one figure at the default scale
//	ptbsweep -exp all -scale 0.25      # everything, shortened workloads
//	ptbsweep -exp all -par 16          # same output, 16 parallel simulations
//	ptbsweep -exp fig9 -cores 2,4,8    # restrict the core sweep
//	ptbsweep -exp fig10 -benches ocean,radix,fft
//	ptbsweep -exp all -store sweep-cells  # rerun skips finished cells
//
// Workload scale trades fidelity for time: the paper shapes are stable
// from about scale 0.25; scale 1.0 runs the full Table-2-calibrated sizes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"ptbsim"
	"ptbsim/internal/core"
	"ptbsim/internal/fault"
	"ptbsim/internal/obs"
	"ptbsim/internal/prof"
	"ptbsim/internal/sim"
)

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1,table2,fig2,fig3,fig4,fig8,fig9,fig10,fig11,fig12,fig13,fig14,sec4d,ext,all")
		scale   = flag.Float64("scale", 0.25, "workload scale (1.0 = Table 2 size)")
		cores   = flag.String("cores", "", "comma-separated core counts (default 2,4,8,16)")
		benches = flag.String("benches", "", "comma-separated benchmarks (default all 14)")
		relax   = flag.Float64("relax", 0.20, "fig14 relaxed threshold")
		big     = flag.Int("bigcores", 16, "core count for the detailed figures (2/10/11/12/13)")
		quiet   = flag.Bool("q", false, "suppress per-run progress")
		par     = flag.Int("par", runtime.NumCPU(), "parallel simulations (1 = serial; output is identical at any value)")
		format  = flag.String("format", "text", "output format: text, md, csv")
		check   = flag.Bool("check", false, "enable runtime invariant checks on every run (fails on any violation)")
		outPath = flag.String("o", "", "write output to this file instead of stdout (for go:generate)")
		parIn   = flag.Int("par-intra", 0, "shard each simulated chip across up to this many goroutine-stepped tiles (0 = serial; each chip uses the largest divisor of its core count that fits; output is identical at any value)")
		store   = flag.String("store", "", "persist every finished cell in this directory; a rerun with the same flags skips the cells already there")
	)
	var faults fault.Flag
	flag.Var(&faults, "faults", "fault-injection spec applied to every run, e.g. seed=42,drop=0.25")
	var telemetry ptbsim.TelemetryFlag
	flag.Var(&telemetry, "telemetry", "stream epoch telemetry from every run into one merged feed, e.g. every=2048,out=sweep.jsonl")
	profFlags := prof.Register(nil)
	flag.Parse()
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The figure builders run cached results through the context-free
	// Runner API; a cancelled bound context surfaces as a panic that the
	// handler below turns into a clean exit.
	defer exitOnInterrupt()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
		out = f
	}

	render := func(t *sim.Table) {
		switch *format {
		case "md":
			t.RenderMarkdown(out)
		case "csv":
			t.RenderCSV(out)
		default:
			t.Render(out)
		}
	}

	r := sim.NewRunner(*scale)
	r.Bind(ctx)
	r.SetParallelism(*par)
	r.CheckInvariants = *check
	r.Faults = faults.Spec
	r.IntraParallel = *parIn
	if *store != "" {
		// The cell store makes the whole sweep restartable: completed cells
		// persist and are skipped; a cell cut short by a crash reruns from
		// cycle 0.
		st, err := r.SetStore(*store)
		if err != nil {
			fail(err)
		}
		if n := st.Rejected(); n > 0 {
			fmt.Fprintf(os.Stderr, "ptbsweep: %d unreadable cell files skipped (recomputing those cells)\n", n)
		}
		if n := st.Len(); n > 0 && !*quiet {
			fmt.Fprintf(os.Stderr, "ptbsweep: resuming: %d completed cells loaded from %s\n", n, *store)
		}
		defer func() {
			if err := st.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "ptbsweep:", err)
			}
		}()
	}
	if telemetry.Spec != nil {
		tel, closeTel, err := telemetry.Spec.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Runs execute in parallel, so the shared sink is serialized into
		// one merged feed; the per-sample run tags keep it unambiguous.
		r.Observe = &obs.Config{Every: tel.Every, Ring: tel.Ring, Sink: obs.Synchronized(tel.Observer)}
		defer func() {
			if err := closeTel(); err != nil {
				fmt.Fprintln(os.Stderr, "ptbsweep: telemetry:", err)
			}
		}()
	}
	if !*quiet {
		r.Progress = os.Stderr
	}

	bs := sim.AllBenchmarks()
	if *benches != "" {
		bs = strings.Split(*benches, ",")
	}
	ccs := sim.CoreCounts()
	if *cores != "" {
		ccs = nil
		for _, s := range strings.Split(*cores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bad -cores:", err)
				os.Exit(2)
			}
			ccs = append(ccs, n)
		}
	}

	run := func(id string) {
		switch id {
		case "table1":
			render(r.Table1())
		case "table2":
			render(r.Table2())
		case "fig2":
			render(r.Fig2(bs, *big))
		case "fig3":
			render(r.Fig3(bs, ccs))
		case "fig4":
			render(r.Fig4(bs, ccs))
		case "fig8":
			render(r.Fig8())
		case "fig9":
			render(r.Fig9(bs, ccs))
		case "fig10":
			render(r.FigDetail("Figure 10", bs, *big, core.PolicyToAll))
		case "fig11":
			render(r.FigDetail("Figure 11", bs, *big, core.PolicyToOne))
		case "fig12":
			render(r.FigDetail("Figure 12", bs, *big, core.PolicyDynamic))
		case "fig13":
			render(r.Fig13(bs, *big))
		case "fig14":
			render(r.Fig14(bs, ccs, *relax))
		case "sec4d":
			render(r.Sec4D(bs, *big))
		case "ext":
			lockBound := []string{"raytrace", "unstructured", "waternsq", "fluidanimate"}
			if *benches != "" {
				lockBound = bs
			}
			render(r.FigExt(lockBound, *big))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		// Precompute every needed run on the worker pool; the figure
		// builders then assemble tables from the cache.
		ccWarm := ccs
		if !contains(ccWarm, *big) {
			ccWarm = append(append([]int(nil), ccWarm...), *big)
		}
		if err := r.WarmContext(ctx, bs, ccWarm, *relax); err != nil {
			fail(err)
		}
		for _, id := range []string{"table1", "table2", "fig2", "fig3", "fig4",
			"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "sec4d", "ext"} {
			run(id)
		}
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(id))
	}
}

func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ptbsweep: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// exitOnInterrupt converts the cancellation panics of the legacy Runner
// path into the same clean exits as fail.
func exitOnInterrupt() {
	p := recover()
	if p == nil {
		return
	}
	if err, ok := p.(error); ok && errors.Is(err, context.Canceled) {
		fail(err)
	}
	panic(p)
}
