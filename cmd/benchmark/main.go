// Command benchmark runs the evaluation harness: every experiment of the
// DESIGN.md per-experiment index (E1–E12), printing one table per
// experiment. This regenerates the tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchmark                      # run everything
//	benchmark -run E4              # run one experiment
//	benchmark -list                # list experiments
//	benchmark -json                # machine-readable output for plot/diff tooling
//	benchmark -run E9 -faultrate 0.01 -seed 7   # E9 under 1% deterministic message loss
//	benchmark -run E16 -adaptive   # hot-key replication on (E16 compares both modes itself)
//
// With -cpuprofile or -memprofile the run writes pprof profiles of the
// harness itself, to find where a handler's allocations go:
//
//	benchmark -run E9 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"adhocshare/internal/experiments"
)

func main() {
	run := flag.String("run", "", "run a single experiment by ID (e.g. E4)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Int64("seed", 0, "master seed XORed into every experiment stream (0 = the published tables)")
	faultRate := flag.Float64("faultrate", 0, "per-message-leg loss probability injected after deployment setup (0 = fault-free)")
	adaptive := flag.Bool("adaptive", false, "enable workload-adaptive hot-key replication in every deployment the experiments build")
	asJSON := flag.Bool("json", false, "emit one JSON document instead of plain-text tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile taken after the run to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	err = runHarness(*run, *list, *asJSON, experiments.Params{Seed: *seed, FaultRate: *faultRate, Adaptive: *adaptive})
	// Flush the profiles even on a failed run: a crash-adjacent profile is
	// still worth reading, and os.Exit skips deferred writers.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", perr)
		if err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and arranges the allocation profile,
// returning a stop function that finishes both.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				first = err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			runtime.GC() // settle live objects so the profile shows real retention
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// runHarness dispatches the selected mode of the command.
func runHarness(run string, list, asJSON bool, p experiments.Params) error {
	if list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return nil
	}
	if asJSON {
		var ids []string
		if run != "" {
			ids = []string{run}
		}
		tables, err := experiments.Collect(p, ids...)
		if err != nil {
			return err
		}
		return experiments.WriteJSON(os.Stdout, tables)
	}
	if run != "" {
		return experiments.RunOne(os.Stdout, run, p)
	}
	return experiments.RunAll(os.Stdout, p)
}
