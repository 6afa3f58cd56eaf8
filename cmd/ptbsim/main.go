// Command ptbsim runs one CMP simulation and prints the paper's metrics
// for it, optionally next to the no-control base case. SIGINT cancels the
// run cleanly.
//
// Usage:
//
//	ptbsim -bench ocean -cores 8 -tech ptb -policy dynamic
//	ptbsim -bench fluidanimate -cores 16 -tech 2level -scale 0.3
//	ptbsim -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ptbsim"
	"ptbsim/internal/prof"
)

func main() {
	var (
		bench   = flag.String("bench", "ocean", "benchmark name (see -list)")
		cores   = flag.Int("cores", 4, "number of cores (2, 4, 8, 16)")
		relax   = flag.Float64("relax", 0, "relaxed trigger threshold (e.g. 0.2 = +20%)")
		budget  = flag.Float64("budget", 0.5, "global budget as a fraction of rated peak")
		scale   = flag.Float64("scale", 1.0, "workload scale (1.0 = Table 2 size)")
		noBase  = flag.Bool("nobase", false, "skip the base-case run and normalization")
		pessim  = flag.Bool("pessimistic", false, "use the 10-cycle PTB latency")
		check   = flag.Bool("check", false, "enable runtime invariant checks (fails on any violation)")
		listAll = flag.Bool("list", false, "list benchmarks and exit")
		asJSON  = flag.Bool("json", false, "emit the result as JSON")
		parIn   = flag.String("par-intra", "1", "shard the simulated chip across this many goroutine-stepped tiles (a divisor of -cores; results are bit-identical at any legal value)")
	)
	// The typed flag.Values validate at parse time through the library's
	// parsers, so unknown names fail loudly with the canonical errors
	// instead of silently defaulting.
	tech := ptbsim.PTB
	flag.Var(&tech, "tech", "technique: "+strings.Join(ptbsim.TechniqueNames(), ", "))
	policy := ptbsim.Dynamic
	flag.Var(&policy, "policy", "PTB policy: "+strings.Join(ptbsim.PolicyNames(), ", "))
	var faults ptbsim.FaultSpecFlag
	flag.Var(&faults, "faults", "fault-injection spec, e.g. seed=42,drop=0.25,noise=0.02 (keys: seed, drop, delay, dup, delaycycles, stale, retries, backoff, stall, stallcycles, corrupt, noise, drift, glitch)")
	var telemetry ptbsim.TelemetryFlag
	flag.Var(&telemetry, "telemetry", "stream epoch telemetry, e.g. every=2048,out=run.jsonl (keys: every, ring, out, format)")
	profFlags := prof.Register(nil)
	flag.Parse()
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	if *listAll {
		fmt.Printf("%-9s %-14s %s\n", "SUITE", "BENCHMARK", "INPUT")
		for _, b := range ptbsim.Benchmarks() {
			fmt.Printf("%-9s %-14s %s\n", b.Suite, b.Name, b.InputSize)
		}
		return
	}

	tiles, err := ptbsim.ParseIntraParallel(*parIn, *cores)
	if err != nil {
		fail(err)
	}

	cfg := ptbsim.Config{
		Benchmark:             *bench,
		Cores:                 *cores,
		Technique:             tech,
		Policy:                policy,
		RelaxFrac:             *relax,
		BudgetFrac:            *budget,
		WorkloadScale:         *scale,
		PessimisticPTBLatency: *pessim,
		CheckInvariants:       *check,
		Faults:                faults.Spec,
		IntraParallel:         tiles,
	}
	if telemetry.Spec != nil {
		tel, closeTel, err := telemetry.Spec.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Observe = tel
		defer func() {
			if err := closeTel(); err != nil {
				fmt.Fprintln(os.Stderr, "ptbsim: telemetry:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r, err := ptbsim.RunContext(ctx, cfg)
	if err != nil {
		fail(err)
	}
	emit(r, *asJSON)
	if *asJSON {
		return
	}

	if !*noBase && cfg.Technique != ptbsim.None {
		baseCfg := cfg
		baseCfg.Technique = ptbsim.None
		baseCfg.Observe = nil // the telemetry feed covers the headline run
		base, err := ptbsim.RunContext(ctx, baseCfg)
		if err != nil {
			fail(err)
		}
		fmt.Println("vs no-control base case:")
		fmt.Printf("  normalized energy : %+6.1f %%\n", ptbsim.NormalizedEnergyPct(r, base))
		fmt.Printf("  normalized AoPB   : %6.1f %%\n", ptbsim.NormalizedAoPBPct(r, base))
		fmt.Printf("  slowdown          : %+6.1f %%\n", ptbsim.SlowdownPct(r, base))
	}
}

// emit prints r either as indented JSON or in the human layout.
func emit(r *ptbsim.Result, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	printResult(r)
}

// fail reports err and exits, distinguishing an interrupted run (exit 130,
// the conventional SIGINT status) from a real failure.
func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "ptbsim: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func printResult(r *ptbsim.Result) {
	label := string(r.Technique)
	if r.Technique == ptbsim.PTB {
		label += "/" + r.Policy
	}
	fmt.Printf("%s on %d cores (%s)\n", r.Benchmark, r.Cores, label)
	fmt.Printf("  cycles            : %d\n", r.Cycles)
	fmt.Printf("  instructions      : %d (IPC/core %.2f)\n", r.Committed,
		float64(r.Committed)/float64(r.Cycles)/float64(r.Cores))
	fmt.Printf("  energy            : %.4f mJ\n", r.EnergyJ*1e3)
	fmt.Printf("  AoPB              : %.4f mJ (over budget %.1f%% of cycles)\n",
		r.AoPBJ*1e3, r.OverBudgetFrac*100)
	fmt.Printf("  chip power        : %.2f W mean, %.2f W std\n", r.MeanPowerW, r.StdPowerW)
	fmt.Printf("  time breakdown    : busy %.1f%%, lock-acq %.1f%%, lock-rel %.1f%%, barrier %.1f%%\n",
		r.BusyFrac*100, r.LockAcqFrac*100, r.LockRelFrac*100, r.BarrierFrac*100)
	fmt.Printf("  spinning power    : %.1f %% of energy\n", r.SpinEnergyFrac*100)
	fmt.Printf("  temperature       : %.1f C mean, %.2f C std\n", r.MeanTempC, r.StdTempC)
	if len(r.ComponentJ) > 0 && r.EnergyJ > 0 {
		fmt.Printf("  energy by group   :")
		for _, g := range []string{"frontend", "execute", "caches", "noc", "dram", "power-mgmt", "clock", "leakage"} {
			fmt.Printf(" %s %.0f%%", g, 100*r.ComponentJ[g]/r.EnergyJ)
		}
		fmt.Println()
	}
	if r.FaultsInjected > 0 || r.Degraded {
		fmt.Printf("  faults injected   : %d (token lost %.0f pJ, retries %d, reports lost %d, stale-fallback %d cycles, noc stalls %d, retransmits %d, dvfs glitches %d)\n",
			r.FaultsInjected, r.TokenLostPJ, r.TokenRetries, r.TokenReportsLost,
			r.StaleFallbackCycles, r.NoCStallCycles, r.NoCRetransmits, r.DVFSGlitches)
		if r.Degraded {
			fmt.Println("  DEGRADED: balancer lost tokens or ran on the stale-share fallback")
		}
	}
	if r.HitMaxCycles {
		fmt.Println("  WARNING: run truncated by the cycle cap")
	}
}
