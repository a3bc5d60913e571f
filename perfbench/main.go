// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output the workload produces, and
// prints every metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	suite            the exp.Registry runners at full size, Workers: 2
//	sinrsim-uniform  the cmd/sinrsim path for -topology uniform -n 8000
//	                 -mac combined -broadcasters 50 -slots 1000
//
// A run repeats whole passes of its workload, at least minPasses of them and
// then while another pass fits into --seconds. With --trace 0 every pass is
// untraced and the end-to-end metrics are medians over passes. With --trace 1
// the run alternates an untraced and a traced pass while another pair fits; the traced pass times the calls
// into each layer from this package's own files, and its outputs must equal
// the untraced pass's.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

//go:embed goldens
var goldens embed.FS

// passResult is what one pass of a workload reports.
type passResult struct {
	// wall is the pass's wall time, excluding the benchmark's own checks
	// and heap measurement.
	wall time.Duration
	// setup is the time before the first step.
	setup time.Duration
	// steps counts the pass's steps and stepping is the time spent in them.
	steps    int
	stepping time.Duration
	// heap is the GC-settled heap in bytes after set-up.
	heap uint64
	// outputs are the pass's checked outputs, in a fixed order.
	outputs []string
	// failed counts outputs that failed their check (golden or invariant).
	failed int
}

// runner runs passes of one workload at one seed.
type runner interface {
	// pass runs the workload once; with tr non-nil it records layer spans.
	pass(tr *trace) passResult
}

// newRunner returns the named workload's runner at the given seed; expSeed
// is the suite's full-size seed (see suite).
func newRunner(name string, seed, expSeed uint64) (runner, error) {
	switch name {
	case "suite":
		return newSuite(expSeed)
	case "sinrsim-uniform":
		return &sinrsimRun{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite or sinrsim-uniform)", name)
}

type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics, reported on every workload. A step is
// one slot on sinrsim-uniform and one trial job of the exp scheduler on
// suite.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// minPasses is the fewest untraced passes a run makes, so every end-to-end
// metric is a median over at least this many passes.
const minPasses = 3

// perLayer are the traced metrics. A layer that does not run on a workload
// reports 0.
var perLayer = []metricDef{
	{"exp.ack.s", "s"}, {"exp.proglb.s", "s"}, {"exp.approg.s", "s"},
	{"exp.decay.s", "s"}, {"exp.smb.s", "s"}, {"exp.mmb.s", "s"},
	{"exp.cons.s", "s"}, {"exp.churn.s", "s"}, {"exp.fault.s", "s"},
	{"topology.build_s", "s"}, {"topology.validate_s", "s"}, {"topology.lambda_s", "s"},
	{"graphs.strong_s", "s"}, {"graphs.diameter_s", "s"}, {"graphs.approx_s", "s"},
	{"sinr.new_fast_s", "s"}, {"sinr.slot_us", "us"}, {"sinr.tx_per_slot", "count"},
	{"mac.new_s", "s"},
	{"sim.new_engine_s", "s"}, {"sim.run_s", "s"}, {"sim.self_s", "s"},
	{"sim.alloc_bytes_per_slot", "B"},
	{"mac.tick_ns", "ns"}, {"mac.recv_ns", "ns"}, {"mac.ticks", "count"}, {"mac.recvs", "count"},
	{"core.check_s", "s"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "frac"}, {"trace.unaccounted_frac", "frac"},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "workload: suite or sinrsim-uniform")
		seed       = flag.Uint64("seed", 1, "sinrsim-uniform's seed (suite runs at -exp-seed); goldens are recorded for 1 and 5")
		expSeed    = flag.Uint64("exp-seed", 1, "suite only: seed of the full-size pass; goldens are recorded for 1 and 5")
		seconds    = flag.Float64("seconds", 20, "measure for this many seconds (whole passes while one more fits, at least 3)")
		traced     = flag.Int("trace", 0, "1 = alternate untraced and traced passes and report per-layer metrics")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of one untraced pass to this file and stop after it")
	)
	flag.Parse()
	r, err := newRunner(*name, *seed, *expSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	var (
		plain, tracedRes []passResult
		layers           []map[string]float64
		attempted        int
		failed           int
	)
	account := func(p passResult) {
		attempted += len(p.outputs)
		failed += p.failed
	}
	start := time.Now()
	switch {
	case *cpuprofile != "":
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		p := r.pass(nil)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		plain = append(plain, p)
		account(p)
	case *traced == 0:
		for more := true; more; {
			t0 := time.Now()
			p := r.pass(nil)
			plain = append(plain, p)
			account(p)
			more = len(plain) < minPasses || fits(start, t0, *seconds)
		}
	default:
		for more := true; more; {
			t0 := time.Now()
			p := r.pass(nil)
			tr := newTrace()
			t := r.pass(tr)
			plain = append(plain, p)
			tracedRes = append(tracedRes, t)
			layers = append(layers, tr.finish(t.wall))
			account(p)
			account(t)
			// Traced outputs must equal untraced outputs.
			attempted += len(p.outputs)
			failed += countMismatches(p.outputs, t.outputs)
			more = fits(start, t0, *seconds)
		}
	}

	metrics := map[string]float64{}
	var defs []metricDef
	if len(tracedRes) == 0 {
		defs = endToEnd
		var walls, setups, rates, heaps []float64
		steps := 0
		for _, p := range plain {
			steps += p.steps
			walls = append(walls, p.wall.Seconds())
			setups = append(setups, p.setup.Seconds())
			if p.stepping > 0 {
				rates = append(rates, float64(p.steps)/p.stepping.Seconds())
			}
			heaps = append(heaps, float64(p.heap)/(1<<20))
		}
		metrics["wall_s"] = median(walls)
		metrics["setup_s"] = median(setups)
		metrics["steps_per_s"] = median(rates)
		metrics["heap_mb"] = median(heaps)
		fmt.Printf("passes: %d, steps: %d, wall_s per pass: %.4g\n", len(plain), steps, walls)
	} else {
		defs = perLayer
		for _, d := range perLayer {
			var vals []float64
			for _, l := range layers {
				vals = append(vals, l[d.name])
			}
			metrics[d.name] = median(vals)
		}
		var pw, tw []float64
		for i := range tracedRes {
			pw = append(pw, plain[i].wall.Seconds())
			tw = append(tw, tracedRes[i].wall.Seconds())
		}
		metrics["trace.overhead_frac"] = (median(tw) - median(pw)) / median(pw)
		fmt.Printf("pass pairs (untraced, traced): %d\n", len(tracedRes))
	}

	out := map[string]any{}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.name, v)
			return 1
		}
		fmt.Printf("%-28s %.6g %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Printf("failed_frac %.6g (%d of %d outputs checked)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0 && attempted > 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// fits reports whether another pass as long as the one started at passStart
// still ends within the run's seconds, so a run never overshoots by a pass.
func fits(runStart, passStart time.Time, seconds float64) bool {
	return time.Since(runStart).Seconds()+time.Since(passStart).Seconds() <= seconds
}

// countMismatches counts positions where two output lists differ, a length
// difference counting once per missing output.
func countMismatches(want, got []string) int {
	n := 0
	for i, w := range want {
		if i >= len(got) || got[i] != w {
			n++
		}
	}
	return n
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// settledHeap forces two collections, the second freeing what sync.Pool
// victim caches kept through the first, and returns the live heap in bytes.
// The forced collections are left out of tr's GC counters, which count only
// the workload's own.
func settledHeap(tr *trace) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	tr.exclude(before, after)
	return after.HeapAlloc
}

// textDigest returns a fixed-size digest of an output text.
func textDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// readGolden returns the embedded golden file, or ok == false when none was
// recorded for it.
func readGolden(path string) (string, bool) {
	b, err := goldens.ReadFile("goldens/" + path)
	if err != nil {
		return "", false
	}
	return string(b), true
}
