// Command experiments regenerates every table and figure of the paper's
// evaluation (Table 1, Table 2, Figure 1, Theorem 8.1) from the simulator
// and prints them as plain-text tables.
//
// Usage:
//
//	experiments [-exp name|all] [-quick] [-seed N] [-trials N] [-workers N] [-o file] [-cpuprofile file]
//
// Experiment names: ack, proglb, approg, decay, smb, mmb, cons.
//
// Trials fan out across -workers concurrent workers (0 = GOMAXPROCS). The
// tables are bit-identical at every worker count: all randomness is derived
// from (seed, experiment, point, trial) labels, never from execution order.
//
// A first SIGINT stops the sweep gracefully: experiments completed before
// the signal are still printed (and flushed to -o), the interrupted one is
// dropped, and the process exits with status 130. A second SIGINT kills the
// process immediately via the default handler.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"

	"sinrmac/internal/exp"
)

func main() {
	os.Exit(run())
}

// exitInterrupted is the conventional exit status for SIGINT terminations.
const exitInterrupted = 130

func run() int {
	var (
		expName    = flag.String("exp", "all", "experiment to run ("+strings.Join(exp.Names(), ", ")+" or all)")
		quick      = flag.Bool("quick", false, "shrink all sweeps so the suite finishes in seconds")
		seed       = flag.Uint64("seed", 1, "random seed for deployments and simulations")
		trials     = flag.Int("trials", 0, "repetitions per data point (0 = per-experiment default)")
		workers    = flag.Int("workers", 0, "concurrent trial workers (0 = GOMAXPROCS, 1 = sequential; tables are identical at any count)")
		batch      = flag.Int("batch", 0, "engine micro-batch size in slots (0 = auto; tables are identical at any value)")
		outPath    = flag.String("o", "", "also write the tables to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// First SIGINT: set the interrupt flag the trial scheduler polls and
	// restore the default handler, so completed tables are flushed below
	// while a second SIGINT still kills a stuck run the usual way.
	var interrupted atomic.Bool
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		interrupted.Store(true)
		signal.Stop(sigs)
	}()

	cfg := exp.Config{
		Seed: *seed, Trials: *trials, Quick: *quick, Workers: *workers,
		Batch: *batch, Interrupt: interrupted.Load,
	}

	status := 0
	var tables []exp.Table
	if *expName == "all" {
		all, err := exp.RunAll(cfg)
		if err != nil {
			if !errors.Is(err, exp.ErrInterrupted) {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "experiments: interrupted; flushing %d completed table(s)\n", len(all))
			status = exitInterrupted
		}
		tables = all
	} else {
		runner, ok := exp.Registry()[*expName]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (valid: %s)\n", *expName, strings.Join(exp.Names(), ", "))
			return 2
		}
		table, err := runner(cfg)
		if err != nil {
			if !errors.Is(err, exp.ErrInterrupted) {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Fprintln(os.Stderr, "experiments: interrupted before the experiment completed")
			return exitInterrupted
		}
		tables = []exp.Table{table}
	}

	var out strings.Builder
	for i, t := range tables {
		if i > 0 {
			out.WriteString("\n")
		}
		out.WriteString(t.Format())
	}
	fmt.Print(out.String())

	if *outPath != "" && len(tables) > 0 {
		if err := writeFileAtomic(*outPath, []byte(out.String())); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *outPath, err)
			return 1
		}
	}
	return status
}

// writeFileAtomic writes via a temp file and rename, so an interrupt racing
// the flush can never leave a half-written table file behind.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
