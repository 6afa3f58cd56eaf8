package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ptbsim"
)

// pinMain re-takes the pinned digests: every configuration each workload
// checks, run through ptbsim.RunContext at the tools' default settings
// (invariants off), written to expected/ beside this file. Run it from
// the repository root after a change that is meant to move results, and
// review the diff like a golden-matrix update.
func pinMain(args []string) error {
	fl := flag.NewFlagSet("pin", flag.ContinueOnError)
	dir := fl.String("o", filepath.Join("perfbench", "expected"), "output directory")
	if err := fl.Parse(args); err != nil {
		return err
	}
	hot, fresh := serveHot(), serveFresh()
	sets := []struct {
		file, about string
		cfgs        []ptbsim.Config
		short       int // configurations from this index on pin only the sha
	}{
		{"chip64.txt", "chip64: ocean,fft x 64 cores x none,ptb/Dynamic cluster 16, scale 0.01", newChip64(0).cfgs, -1},
		{"golden4.txt", "golden4: 14 benchmarks x 7 techniques, 4 cores, scale 0.25, Dynamic", newGolden4(0).cfgs, -1},
		{"serve.txt", "serve-mixed: the hot set, then the fresh pool by sha (2 cores, scale 0.02)", append(hot, fresh...), len(hot)},
	}
	for _, s := range sets {
		digests, err := runAll(s.cfgs)
		if err != nil {
			return fmt.Errorf("pin %s: %w", s.file, err)
		}
		if s.short >= 0 {
			for i := s.short; i < len(digests); i++ {
				digests[i] = fragment(digests[i])
			}
		}
		if err := writeDigests(filepath.Join(*dir, s.file), s.about, s.cfgs, digests); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pinned %d digests in %s\n", len(digests), s.file)
	}
	return nil
}

// runAll simulates cfgs on one goroutine per CPU and returns their
// digests.
func runAll(cfgs []ptbsim.Config) ([]string, error) {
	digests := make([]string, len(cfgs))
	errs := make([]error, len(cfgs))
	forEach(len(cfgs), runtime.GOMAXPROCS(0), func(i int) {
		r, err := ptbsim.RunContext(context.Background(), cfgs[i])
		if err != nil {
			errs[i] = err
			return
		}
		digests[i] = r.Digest()
	})
	return digests, errors.Join(errs...)
}

func writeDigests(path, about string, cfgs []ptbsim.Config, digests []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# pinned digests, invariants off: %s\n", about)
	fmt.Fprintf(w, "# regenerate: bash perfbench/run.sh pin   (from the repository root)\n")
	for i, c := range cfgs {
		fmt.Fprintf(w, "%s\t%s\n", configID(c), digests[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
