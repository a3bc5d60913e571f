// Command macbench runs the ablation sweeps that DESIGN.md calls out for
// the Algorithm 9.1 parameters: it measures the approximate-progress
// latency of a fixed dense-cluster workload while varying one structural
// constant at a time (the transmission probability p, the data divisor
// scale QScale, and the discovery block scale TFactor).
//
// The output justifies the defaults used by the experiment harness and
// shows how the epoch structure trades discovery reliability against data
// throughput.
//
// With -json the command instead benchmarks the slot pipeline via
// testing.Benchmark and writes the measurements to BENCH_macbench.json (or
// the -out path), so the performance trajectory stays machine-readable
// across PRs:
//
//   - the SINR slot hot path, naive reference vs fast evaluator, in the
//     matrix and grid regimes (ns/op, allocs/op, speedup vs naive);
//   - the sparse sender-centric path vs the dense scan on the
//     sinr.SparseBenchWorkload (|tx| = √n) in both regimes;
//   - the hierarchical-bounds tier vs the dense scan on the
//     sinr.DenseBenchWorkload at k = n/4 and k = n, with the measured
//     exact-fallback (refine) rate per case;
//   - the sharded regime at scale (n = 100k, and n = 10⁶ with -large): the
//     certified sharded pipeline vs the per-pair dense scan, plus the
//     measured heap footprint of channel + evaluator (rss_bytes,
//     bytes_per_node), which must stay within
//     sinr.ShardBytesPerNodeBudget;
//   - churn epochs on the sinr.ChurnBenchWorkload: incrementally applying
//     a mobility epoch (1% of nodes moved) to a live evaluator vs
//     rebuilding it from scratch, in both cache regimes (the apply path is
//     expected to stay allocation-free);
//   - a steady-state sim.Engine.Step over pooled frames (ns/op and
//     allocs/op, the latter expected to be zero): the sequential driver and
//     the adaptive serial/parallel crossover at n = 2000 and n = 5000, plus
//     the fused session driver pinned on so its machinery is measured even
//     where the crossover would decline it, and the same serial workload
//     with a zero-fault injector installed (engine_step_faults), which pins
//     the fault layer's dispatch cost to healthy simulations;
//   - the batched executor (engine_run_batch): the identical pinned
//     fused-parallel workload driven slot-at-a-time via Engine.Step (one
//     workpool session per slot) against Engine.RunBatch's 64-slot
//     micro-batches (one session per batch), at n = 2000 and n = 5000,
//     with a per-phase breakdown of the sequential step (tick / evaluate /
//     receive ns per slot) measured in a separate profiled pass so the
//     headline numbers stay clean;
//   - the blocked (SIMD-friendly) kernel restructurings against the scalar
//     loops they replaced, on the production entry points: the matrix
//     totals gather (4 receivers per pass, breaking the loop-carried FP
//     add chain) and the power-column fill;
//   - the pow-free path-loss kernel (sinr.Params.ReceivedPower with its
//     integer-α multiplication fast paths plus the Sqrt distance) against
//     the pre-rewrite math.Pow+math.Hypot arithmetic, per fast-pathed
//     exponent.
//
// Several gates run on the fresh measurements themselves, independent of
// any baseline: at n ≥ 5000 the adaptive engine-step driver must not be
// slower than the sequential driver beyond stepCrossoverTolerance (the
// crossover exists precisely to make "Parallel: true" safe to enable), each
// integer-α path-loss kernel must beat the math.Pow reference, the
// degenerate all-transmit slot (bounds_full) must not be slower under the
// adaptive dispatch than under the pinned dense scan beyond
// boundsFullMinSpeedup (both sides short-circuit on the half-duplex
// early-out, so a real gap means a tier is paying setup cost before
// declining), the zero-fault injector may not slow the serial engine step
// beyond faultHookMaxOverhead, the batched executor must not lose to the
// slot-at-a-time Step loop (batchRunMinSpeedup) and must stay
// allocation-free in steady state, the matrix regime's transmitter-major
// totals pass must beat the scalar per-receiver sum by at least
// blockedGatherMinSpeedup, and the sharded
// evaluator's measured bytes/node must stay within
// sinr.ShardBytesPerNodeBudget.
//
// With -compare FILE the fresh measurements are additionally checked
// against a previously committed report on machine-invariant quantities:
// the run fails if any matching case's speedup ratio (fast over naive,
// sparse over dense, bounds over dense) shrank by more than the tolerance
// (2×) or an optimised path started allocating. CI runs this against the
// committed BENCH_macbench.json as a gross-regression smoke test, appends
// the per-case baseline-vs-current table to the job summary via -summary,
// and uploads the fresh JSON as an artifact.
//
// -cpuprofile and -memprofile capture pprof profiles of either mode, so a
// hot-path regression flagged by the gate can be diagnosed from the same
// binary that measured it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"sinrmac/internal/approgress"
	"sinrmac/internal/core"
	"sinrmac/internal/fault"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/stats"
	"sinrmac/internal/topology"
)

// listener records the first rcv slot at its node.
type listener struct {
	core.NopLayer
	rcvSlot int64
}

func (l *listener) OnRcv(slot int64, m core.Message) {
	if l.rcvSlot < 0 {
		l.rcvSlot = slot
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nodes      = flag.Int("n", 24, "cluster size (the listener plus n-1 broadcasters)")
		trials     = flag.Int("trials", 3, "trials per configuration")
		seed       = flag.Uint64("seed", 1, "random seed")
		jsonMode   = flag.Bool("json", false, "benchmark the slot pipeline and write a JSON report instead of the ablation sweeps")
		large      = flag.Bool("large", false, "include the n=1e6 sharded smoke case in -json mode (minutes of extra runtime; keep it out of the committed baseline so gated runs stay fast)")
		outPath    = flag.String("out", benchFile, "path the -json report is written to")
		compare    = flag.String("compare", "", "baseline report to check the fresh -json measurements against (fails on gross regressions)")
		summary    = flag.String("summary", "", "append a markdown baseline-vs-current table of the -json measurements to this file (CI writes it to the job summary)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (hot-path regressions can then be diagnosed from the same binary the CI gate runs)")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			}
		}()
	}

	if *jsonMode {
		return runJSONBench(*seed, *outPath, *compare, *summary, *large)
	}

	fmt.Printf("ablation workload: one cluster of %d nodes, %d broadcasters, listener = node 0\n\n", *nodes, *nodes-1)

	base := func(lambda float64) approgress.Config {
		cfg := approgress.DefaultConfig(lambda, 0.1, 3)
		cfg.QScale = 0.5
		cfg.TFactor = 4
		cfg.MISRounds = 4
		cfg.DataFactor = 2
		return cfg
	}

	type variant struct {
		name   string
		mutate func(*approgress.Config)
	}
	groups := []struct {
		title    string
		variants []variant
	}{
		{"transmission probability p", []variant{
			{"p=0.05", func(c *approgress.Config) { c.P = 0.05 }},
			{"p=0.10 (default)", func(c *approgress.Config) { c.P = 0.10 }},
			{"p=0.25", func(c *approgress.Config) { c.P = 0.25 }},
		}},
		{"data divisor scale QScale", []variant{
			{"QScale=0.25", func(c *approgress.Config) { c.QScale = 0.25 }},
			{"QScale=0.5 (default)", func(c *approgress.Config) { c.QScale = 0.5 }},
			{"QScale=1.0 (paper formula)", func(c *approgress.Config) { c.QScale = 1.0 }},
		}},
		{"discovery block scale TFactor", []variant{
			{"TFactor=2", func(c *approgress.Config) { c.TFactor = 2 }},
			{"TFactor=4 (default)", func(c *approgress.Config) { c.TFactor = 4 }},
			{"TFactor=8", func(c *approgress.Config) { c.TFactor = 8 }},
		}},
	}

	for _, g := range groups {
		fmt.Printf("== %s\n", g.title)
		fmt.Printf("%-28s  %10s  %10s  %10s\n", "variant", "epoch_len", "median", "max")
		for _, v := range g.variants {
			latencies, epochLen, err := measure(*nodes, *trials, *seed, base, v.mutate)
			if err != nil {
				fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
				return 1
			}
			fmt.Printf("%-28s  %10d  %10.0f  %10.0f\n", v.name, epochLen, stats.Median(latencies), stats.Max(latencies))
		}
		fmt.Println()
	}
	return 0
}

// benchCase is one measured slot-path configuration in BENCH_macbench.json.
type benchCase struct {
	// Name identifies the regime: "matrix" (n below the power-matrix
	// threshold) or "grid" (spatial-grid far-field path).
	Name string `json:"name"`
	// Nodes and Transmitters describe the workload.
	Nodes        int `json:"nodes"`
	Transmitters int `json:"transmitters"`
	// Naive and Fast are the per-slot cost of the reference and fast
	// evaluators.
	NaiveNsPerOp     float64 `json:"naive_ns_per_op"`
	NaiveAllocsPerOp int64   `json:"naive_allocs_per_op"`
	FastNsPerOp      float64 `json:"fast_ns_per_op"`
	FastAllocsPerOp  int64   `json:"fast_allocs_per_op"`
	// SpeedupVsNaive is NaiveNsPerOp / FastNsPerOp.
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
}

// sparseCase is one sparse-vs-dense slot-path measurement: the same
// workload (|tx| = √n) evaluated with the sender-centric sparse path
// disabled and enabled.
type sparseCase struct {
	// Name identifies the regime: "sparse_matrix" or "sparse_grid".
	Name string `json:"name"`
	// Nodes and Transmitters describe the workload (sinr.SparseBenchWorkload).
	Nodes        int `json:"nodes"`
	Transmitters int `json:"transmitters"`
	// Dense and Sparse are the per-slot cost of the full receiver scan and
	// the sender-centric candidate enumeration.
	DenseNsPerOp      float64 `json:"dense_ns_per_op"`
	DenseAllocsPerOp  int64   `json:"dense_allocs_per_op"`
	SparseNsPerOp     float64 `json:"sparse_ns_per_op"`
	SparseAllocsPerOp int64   `json:"sparse_allocs_per_op"`
	// SpeedupVsDense is DenseNsPerOp / SparseNsPerOp.
	SpeedupVsDense float64 `json:"speedup_vs_dense"`
}

// boundsCase is one bounds-vs-dense slot-path measurement: the same dense
// workload (sinr.DenseBenchWorkload) evaluated with the hierarchical-bounds
// tier disabled and with the default adaptive dispatch, plus the measured
// exact-fallback fraction of the bounds run.
type boundsCase struct {
	// Name identifies the transmitter density: "bounds_quarter" (k = n/4)
	// or "bounds_full" (k = n, everyone transmits — no listeners, so the
	// adaptive dispatch correctly declines the tier and the entry mostly
	// documents that the degenerate slot stays cheap).
	Name string `json:"name"`
	// Nodes and Transmitters describe the workload.
	Nodes        int `json:"nodes"`
	Transmitters int `json:"transmitters"`
	// Dense and Bounds are the per-slot cost of the pre-bounds dense scan
	// and the adaptive evaluator (bounds tier enabled).
	DenseNsPerOp      float64 `json:"dense_ns_per_op"`
	DenseAllocsPerOp  int64   `json:"dense_allocs_per_op"`
	BoundsNsPerOp     float64 `json:"bounds_ns_per_op"`
	BoundsAllocsPerOp int64   `json:"bounds_allocs_per_op"`
	// SpeedupVsDense is DenseNsPerOp / BoundsNsPerOp.
	SpeedupVsDense float64 `json:"speedup_vs_dense"`
	// RefineRate is the fraction of bounds-evaluated receivers that fell
	// back to the exact evaluator (sinr.BoundsStats.RefineRate over the
	// measured slots).
	RefineRate float64 `json:"refine_rate"`
}

// shardCase is one sharded-regime measurement at scale: the same dense
// workload evaluated by the per-pair grid regime (dense scan pinned, shards
// disabled) and by the sharded evaluator, plus the sharded evaluator's
// measured heap footprint (channel + evaluator + workload, GC-settled
// HeapAlloc delta). The large case skips the dense side — a 10⁶-node
// per-pair scan takes minutes per op — and documents footprint and absolute
// slot cost only.
type shardCase struct {
	// Name identifies the scale: "shard_n100k" or "shard_n1m" (-large only).
	Name string `json:"name"`
	// Nodes, Transmitters and Shards describe the workload and partition.
	Nodes        int `json:"nodes"`
	Transmitters int `json:"transmitters"`
	Shards       int `json:"shards"`
	// Dense is the per-pair grid regime's dense scan (absent for the large
	// case); Shard the sharded evaluator with adaptive certificate dispatch.
	DenseNsPerOp     float64 `json:"dense_ns_per_op,omitempty"`
	DenseAllocsPerOp int64   `json:"dense_allocs_per_op,omitempty"`
	ShardNsPerOp     float64 `json:"shard_ns_per_op"`
	ShardAllocsPerOp int64   `json:"shard_allocs_per_op"`
	// SpeedupVsDense is DenseNsPerOp / ShardNsPerOp (0 when no dense side).
	SpeedupVsDense float64 `json:"speedup_vs_dense,omitempty"`
	// RefineRate is the certified pipeline's exact-fallback fraction.
	RefineRate float64 `json:"refine_rate"`
	// RSSBytes is the settled heap growth of building the channel plus the
	// sharded evaluator and running one slot; BytesPerNode divides by n and
	// is gated within-run against sinr.ShardBytesPerNodeBudget.
	RSSBytes     uint64  `json:"rss_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// churnCase is one churn-epoch measurement: the cost of incrementally
// applying a mobility epoch to a live fast evaluator
// (sinr.FastChannel.ApplyEpoch) against rebuilding the evaluator from
// scratch over the post-epoch deployment, on sinr.ChurnBenchWorkload.
type churnCase struct {
	// Name identifies the regime: "churn_matrix" (power matrix patched in
	// place) or "churn_grid" (grid buckets patched, column cache dropped).
	Name string `json:"name"`
	// Nodes is the deployment size; Changed how many nodes move per epoch.
	Nodes   int `json:"nodes"`
	Changed int `json:"changed_per_epoch"`
	// Rebuild and Apply are the per-epoch cost of a from-scratch evaluator
	// rebuild and of the incremental apply path.
	RebuildNsPerOp     float64 `json:"rebuild_ns_per_op"`
	RebuildAllocsPerOp int64   `json:"rebuild_allocs_per_op"`
	ApplyNsPerOp       float64 `json:"apply_ns_per_op"`
	ApplyAllocsPerOp   int64   `json:"apply_allocs_per_op"`
	// SpeedupVsRebuild is RebuildNsPerOp / ApplyNsPerOp.
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild"`
}

// stepCase is one steady-state Engine.Step measurement over the pooled
// frame pipeline.
type stepCase struct {
	Name string `json:"name"`
	// Nodes is the deployment size; TxPerSlot the mean transmitter count.
	Nodes     int     `json:"nodes"`
	TxPerSlot float64 `json:"tx_per_slot"`
	// Parallel reports whether the worker-pool driver was enabled; Pinned
	// whether the fused parallel driver was forced past the measured
	// crossover (sim.Config.PinDriver).
	Parallel    bool    `json:"parallel"`
	Pinned      bool    `json:"pinned,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// TickNsPerSlot, EvalNsPerSlot and RecvNsPerSlot split the sequential
	// driver's slot into its three phases (node ticks, SINR evaluation,
	// frame deliveries + observers). They come from a separate profiled
	// pass (sim.Config.Profile) over the same workload, so the time.Now
	// instrumentation never pollutes NsPerOp, and they are set only on the
	// hook-free sequential cases — the profiled driver is sequential-only.
	TickNsPerSlot float64 `json:"tick_ns_per_slot,omitempty"`
	EvalNsPerSlot float64 `json:"eval_ns_per_slot,omitempty"`
	RecvNsPerSlot float64 `json:"recv_ns_per_slot,omitempty"`
}

// batchCase is one batched-executor measurement: the identical pinned
// fused-parallel engine workload driven slot-at-a-time via Engine.Step —
// one workpool session (helper wake + park) per slot — and via
// Engine.RunBatch, which keeps one session open across the whole
// micro-batch. The two executions are bit-identical (pinned by the
// differential suite in internal/sim), so the ratio isolates the
// per-slot session overhead the batch amortises.
type batchCase struct {
	Name string `json:"name"`
	// Nodes is the deployment size; TxPerSlot the mean transmitter count;
	// Batch the micro-batch size the Run side executes per op.
	Nodes     int     `json:"nodes"`
	TxPerSlot float64 `json:"tx_per_slot"`
	Batch     int     `json:"batch"`
	// StepNsPerSlot is the slot-at-a-time cost (one Engine.Step op);
	// BatchNsPerSlot the RunBatch cost divided by the batch size.
	StepNsPerSlot     float64 `json:"step_ns_per_slot"`
	StepAllocsPerSlot int64   `json:"step_allocs_per_slot"`
	BatchNsPerSlot    float64 `json:"batch_ns_per_slot"`
	// BatchAllocsPerOp counts allocations per whole RunBatch op (not per
	// slot); the within-run gate pins it to zero.
	BatchAllocsPerOp int64 `json:"batch_allocs_per_op"`
	// SpeedupVsStep is StepNsPerSlot / BatchNsPerSlot.
	SpeedupVsStep float64 `json:"speedup_vs_step"`
}

// blockedCase is one blocked-kernel measurement: a production hot loop
// restructured into 4-wide blocks (receivers for the column fill,
// transmitter rows for the matrix totals pass) against the scalar loop it
// replaced, over the identical inputs. The two are bit-identical in result
// (pinned by the kernel tests in internal/sinr), so the ratio is pure
// instruction-scheduling gain.
type blockedCase struct {
	Name string `json:"name"`
	// Nodes is the workload size; Transmitters the gather's |tx| (absent
	// for the column fill, which has no transmitter set).
	Nodes        int `json:"nodes"`
	Transmitters int `json:"transmitters,omitempty"`
	// Scalar and Blocked are the per-op cost of the replaced scalar loop
	// and the shipped blocked kernel.
	ScalarNsPerOp  float64 `json:"scalar_ns_per_op"`
	BlockedNsPerOp float64 `json:"blocked_ns_per_op"`
	// SpeedupVsScalar is ScalarNsPerOp / BlockedNsPerOp.
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
}

// kernelCase is one path-loss kernel measurement: the pow-free arithmetic
// (integer-α multiplication plus Sqrt distance) against the pre-rewrite
// math.Pow + math.Hypot composition over the same point pairs. The two are
// bit-identical in result (pinned by the differential tests in
// internal/sinr), so the ratio is pure arithmetic cost.
type kernelCase struct {
	Name  string  `json:"name"`
	Alpha float64 `json:"alpha"`
	// Pairs is how many receiver pairs each op evaluates.
	Pairs int `json:"pairs"`
	// Pow and Fast are the per-op cost of the math.Pow+Hypot reference and
	// the shipped ReceivedPower(Dist) composition.
	PowNsPerOp  float64 `json:"pow_ns_per_op"`
	FastNsPerOp float64 `json:"fast_ns_per_op"`
	// SpeedupVsPow is PowNsPerOp / FastNsPerOp.
	SpeedupVsPow float64 `json:"speedup_vs_pow"`
}

// benchReport is the top-level BENCH_macbench.json document.
type benchReport struct {
	GoMaxProcs   int           `json:"gomaxprocs"`
	Seed         uint64        `json:"seed"`
	Cases        []benchCase   `json:"cases"`
	SparseCases  []sparseCase  `json:"sparse_cases"`
	BoundsCases  []boundsCase  `json:"bounds_cases"`
	ShardCases   []shardCase   `json:"shard_cases,omitempty"`
	ChurnCases   []churnCase   `json:"churn_cases"`
	StepCases    []stepCase    `json:"step_cases"`
	BatchCases   []batchCase   `json:"batch_cases,omitempty"`
	BlockedCases []blockedCase `json:"blocked_cases,omitempty"`
	KernelCases  []kernelCase  `json:"kernel_cases,omitempty"`
}

// benchFile is where runJSONBench writes its report by default.
const benchFile = "BENCH_macbench.json"

// compareTolerance is the gross-regression threshold of -compare: a fresh
// speedup ratio (fast over naive, sparse over dense) may be at most this
// many times smaller than the committed baseline's. The gate compares
// ratios measured within one run rather than absolute ns/op, so it is
// invariant to how fast the machine running it is; the tolerance is
// generous on purpose — the check has to survive workload-shape variance
// across hosts and only catch order-of-magnitude breakage.
const compareTolerance = 2.0

// stepCrossoverMinNodes and stepCrossoverTolerance define the within-run
// engine-step crossover gate: at deployments of at least this size, the
// adaptive (Parallel, unpinned) driver must not be slower than the
// sequential driver by more than the tolerance. The adaptive driver times
// both drivers and picks the cheaper one, so — modulo its 16-slot probe
// overhead per 8192-slot window and benchmark noise — it can only lose by a
// sliver; a larger loss means the crossover machinery itself broke. Pinned
// cases are exempt: they exist to measure the fused session driver even
// where the crossover would correctly decline it.
const (
	stepCrossoverMinNodes  = 5000
	stepCrossoverTolerance = 1.2
)

// boundsFullMinSpeedup is the within-run gate on the degenerate all-transmit
// case: with every node transmitting, half-duplex leaves no listener and
// both the pinned dense scan and the adaptive dispatch short-circuit on the
// same O(k) early-out, so the adaptive side may not be meaningfully slower.
// A ratio below this bound means a tier is paying per-slot setup cost before
// declining the degenerate slot. Because the two sides are near-identical
// ~10 µs loops whose single measurements swing tens of percent with host
// frequency state, the gate judges the ratio of per-side minima over up to
// boundsFullRounds interleaved measurement rounds (stopping early once it
// passes): a genuine setup cost is persistent and survives the minimum.
const (
	boundsFullMinSpeedup = 0.95
	boundsFullRounds     = 5
)

// faultHookMaxOverhead is the within-run gate on the fault-injection hook:
// the serial engine-step workload with a zero-fault injector installed
// (engine_step_faults) may cost at most this factor over the identical
// workload with no hook. A zero-rate plan consumes no randomness and scrubs
// nothing, so the measured gap is pure dispatch overhead — the price every
// non-faulty simulation pays for the layer existing. Like bounds_full, the
// two sides are near-identical loops, so the gate judges the ratio of
// per-side minima over up to faultHookRounds interleaved rounds.
const (
	faultHookMaxOverhead = 1.05
	faultHookRounds      = 5
)

// batchRunMinSpeedup is the within-run gate on the batched executor: per
// slot, Engine.RunBatch on the pinned fused-parallel workload may never be
// slower than the slot-at-a-time Engine.Step loop — batching only removes
// per-slot session overhead (helper wake + park), it adds no per-slot work.
// The absolute win depends on how expensive a wake is on the host (it is
// largest on few-core runners where helpers contend with the leader), so
// the gate only pins the sign; the measured speedup is reported, not
// gated, beyond that. Both sides are re-measured in interleaved rounds and
// judged on per-side minima, like bounds_full. The batch side must also
// stay allocation-free across a whole micro-batch.
const (
	batchRunMinSpeedup = 1.0
	batchRunRounds     = 5
)

// blockedGatherMinSpeedup is the within-run gate on the matrix regime's
// transmitter-major totals pass: streaming each transmitter's matrix row
// into per-receiver accumulators breaks the scalar loop's loop-carried
// floating-point add chain (one ~4-cycle add latency per element scalar,
// one independent chain per receiver transmitter-major), a
// microarchitectural win that exists on any out-of-order host, so the gate
// demands a real margin even though the pass also tracks every receiver's
// strongest sender. The column fill's scalar loop already had independent
// iterations, so its blocked form is gated only to not regress
// (blockedFillMinSpeedup). Judged on per-side minima over interleaved
// rounds, as above.
const (
	blockedGatherMinSpeedup = 1.15
	blockedFillMinSpeedup   = 0.95
	blockedKernelRounds     = 5
)

// benchSlot measures one evaluator configuration over a fixed transmitter
// set, warming the evaluator first so caches behave as in a running
// simulation.
func benchSlot(ev sinr.ChannelEvaluator, tx []int) testing.BenchmarkResult {
	ev.SlotReceptions(tx)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.SlotReceptions(tx)
		}
	})
}

// runJSONBench measures the slot pipeline via testing.Benchmark, writes the
// report to outPath, appends a markdown table to summaryPath when set, and
// — when comparePath is set — checks the fresh numbers against the
// committed baseline.
func runJSONBench(seed uint64, outPath, comparePath, summaryPath string, largeMode bool) int {
	report := benchReport{GoMaxProcs: runtime.GOMAXPROCS(0), Seed: seed}

	// Naive-vs-fast on the dense canonical workload, both cache regimes:
	// below sinr.DefaultMatrixThreshold the fast path serves slots from the
	// precomputed power matrix; above it, from the spatial grid with the
	// lazy column cache.
	for _, reg := range []struct {
		name string
		n    int
	}{
		{"matrix", 1000},
		{"grid", 4000},
	} {
		ch, tx, err := sinr.BenchWorkload(reg.n, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		naive := benchSlot(ch, tx)
		fast := sinr.NewFastChannel(ch)
		fastRes := benchSlot(fast, tx)
		fast.Close()
		c := benchCase{
			Name:             reg.name,
			Nodes:            reg.n,
			Transmitters:     len(tx),
			NaiveNsPerOp:     float64(naive.NsPerOp()),
			NaiveAllocsPerOp: naive.AllocsPerOp(),
			FastNsPerOp:      float64(fastRes.NsPerOp()),
			FastAllocsPerOp:  fastRes.AllocsPerOp(),
		}
		if c.FastNsPerOp > 0 {
			c.SpeedupVsNaive = c.NaiveNsPerOp / c.FastNsPerOp
		}
		report.Cases = append(report.Cases, c)
		fmt.Printf("%-13s n=%-5d k=%-4d naive %12.0f ns/op (%d allocs)  fast %10.0f ns/op (%d allocs)  speedup %.1fx\n",
			reg.name, c.Nodes, c.Transmitters, c.NaiveNsPerOp, c.NaiveAllocsPerOp, c.FastNsPerOp, c.FastAllocsPerOp, c.SpeedupVsNaive)
	}

	// Sparse-vs-dense on the sparse workload (|tx| = √n at n = 5000), both
	// regimes. The matrix regime raises the threshold so the 5000-node
	// deployment still uses the cached power matrix, isolating the receiver
	// enumeration as the only difference.
	const sparseN = 5000
	for _, reg := range []struct {
		name      string
		threshold int
	}{
		{"sparse_matrix", sparseN},
		{"sparse_grid", -1},
	} {
		ch, tx, err := sinr.SparseBenchWorkload(sparseN, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		dense := sinr.NewFastChannel(ch, sinr.FastOptions{MatrixThreshold: reg.threshold, SparseFactor: -1})
		denseRes := benchSlot(dense, tx)
		dense.Close()
		sparse := sinr.NewFastChannel(ch, sinr.FastOptions{MatrixThreshold: reg.threshold})
		sparseRes := benchSlot(sparse, tx)
		sparse.Close()
		c := sparseCase{
			Name:              reg.name,
			Nodes:             sparseN,
			Transmitters:      len(tx),
			DenseNsPerOp:      float64(denseRes.NsPerOp()),
			DenseAllocsPerOp:  denseRes.AllocsPerOp(),
			SparseNsPerOp:     float64(sparseRes.NsPerOp()),
			SparseAllocsPerOp: sparseRes.AllocsPerOp(),
		}
		if c.SparseNsPerOp > 0 {
			c.SpeedupVsDense = c.DenseNsPerOp / c.SparseNsPerOp
		}
		report.SparseCases = append(report.SparseCases, c)
		fmt.Printf("%-13s n=%-5d k=%-4d dense %12.0f ns/op (%d allocs)  sparse %9.0f ns/op (%d allocs)  speedup %.1fx\n",
			reg.name, c.Nodes, c.Transmitters, c.DenseNsPerOp, c.DenseAllocsPerOp, c.SparseNsPerOp, c.SparseAllocsPerOp, c.SpeedupVsDense)
	}

	// Bounds-vs-dense on the dense workload (k = n/4 and k = n at n = 5000,
	// grid regime): the hierarchical-bounds tier against the pre-bounds
	// dense scan, with the sparse path pinned off on both sides so the tier
	// is the only difference. The bounds side keeps the default adaptive
	// dispatch — the number reported is what simulations actually get — and
	// its refine rate (exact-fallback fraction) rides along.
	const boundsN = 5000
	for _, reg := range []struct {
		name string
		k    int
	}{
		{"bounds_quarter", boundsN / 4},
		{"bounds_full", boundsN},
	} {
		runtime.GC() // settle the previous family's garbage before timing
		ch, tx, err := sinr.DenseBenchWorkload(boundsN, reg.k, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		measure := func() boundsCase {
			dense := sinr.NewFastChannel(ch, sinr.FastOptions{SparseFactor: -1, BoundsFactor: -1})
			denseRes := benchSlot(dense, tx)
			dense.Close()
			bounds := sinr.NewFastChannel(ch, sinr.FastOptions{SparseFactor: -1})
			boundsRes := benchSlot(bounds, tx)
			st := bounds.BoundsStats()
			bounds.Close()
			c := boundsCase{
				Name:              reg.name,
				Nodes:             boundsN,
				Transmitters:      len(tx),
				DenseNsPerOp:      float64(denseRes.NsPerOp()),
				DenseAllocsPerOp:  denseRes.AllocsPerOp(),
				BoundsNsPerOp:     float64(boundsRes.NsPerOp()),
				BoundsAllocsPerOp: boundsRes.AllocsPerOp(),
				RefineRate:        st.RefineRate(),
			}
			if c.BoundsNsPerOp > 0 {
				c.SpeedupVsDense = c.DenseNsPerOp / c.BoundsNsPerOp
			}
			return c
		}
		c := measure()
		if reg.name == "bounds_full" {
			// Both sides of the all-transmit slot run the identical O(k)
			// early-out, so the true ratio is 1 — but at ~10 µs/op a single
			// measurement swings tens of percent with host frequency state.
			// Gate on the ratio of per-side minima over a few interleaved
			// rounds: a real per-slot setup cost is persistent and survives
			// the minimum, noise does not.
			for round := 1; round < boundsFullRounds && c.SpeedupVsDense < boundsFullMinSpeedup; round++ {
				m := measure()
				if m.DenseNsPerOp < c.DenseNsPerOp {
					c.DenseNsPerOp = m.DenseNsPerOp
					c.DenseAllocsPerOp = m.DenseAllocsPerOp
				}
				if m.BoundsNsPerOp < c.BoundsNsPerOp {
					c.BoundsNsPerOp = m.BoundsNsPerOp
					c.BoundsAllocsPerOp = m.BoundsAllocsPerOp
					c.RefineRate = m.RefineRate
				}
				if c.BoundsNsPerOp > 0 {
					c.SpeedupVsDense = c.DenseNsPerOp / c.BoundsNsPerOp
				}
			}
			if c.SpeedupVsDense < boundsFullMinSpeedup {
				fmt.Fprintf(os.Stderr, "macbench: bounds_full gate failed: adaptive dispatch %.0f ns/op vs pinned dense %.0f ns/op (%.2fx < %.2fx) — the degenerate all-transmit slot is paying tier setup cost\n",
					c.BoundsNsPerOp, c.DenseNsPerOp, c.SpeedupVsDense, boundsFullMinSpeedup)
				return 1
			}
		}
		report.BoundsCases = append(report.BoundsCases, c)
		fmt.Printf("%-14s n=%-5d k=%-4d dense %12.0f ns/op (%d allocs)  bounds %9.0f ns/op (%d allocs)  speedup %.1fx  refine %.3f\n",
			reg.name, c.Nodes, c.Transmitters, c.DenseNsPerOp, c.DenseAllocsPerOp, c.BoundsNsPerOp, c.BoundsAllocsPerOp, c.SpeedupVsDense, c.RefineRate)
	}

	// The sharded regime at scale: n = 100k (and n = 10⁶ with -large)
	// against the per-pair dense scan where that scan is still affordable,
	// with the settled heap footprint of channel + evaluator measured and
	// gated against the documented per-node budget.
	shardScales := []struct {
		name      string
		n, k      int
		shards    int // 0 = automatic (n is above the threshold at both scales)
		withDense bool
	}{
		{"shard_n100k", 100_000, 100_000 / 32, 8, true},
	}
	if largeMode {
		shardScales = append(shardScales, struct {
			name      string
			n, k      int
			shards    int
			withDense bool
		}{"shard_n1m", 1_000_000, 1_000_000 / 32, 0, false})
	}
	for _, sc := range shardScales {
		c, err := measureShardCase(sc.name, sc.n, sc.k, sc.shards, seed, sc.withDense)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		if c.BytesPerNode > sinr.ShardBytesPerNodeBudget {
			fmt.Fprintf(os.Stderr, "macbench: %s memory gate failed: %.1f heap bytes/node exceeds the documented budget %d\n",
				c.Name, c.BytesPerNode, sinr.ShardBytesPerNodeBudget)
			return 1
		}
		report.ShardCases = append(report.ShardCases, c)
		fmt.Printf("%-14s n=%-7d k=%-6d S=%-3d dense %12.0f ns/op  shard %12.0f ns/op (%d allocs)  speedup %.1fx  refine %.3f  %.1f B/node\n",
			c.Name, c.Nodes, c.Transmitters, c.Shards, c.DenseNsPerOp, c.ShardNsPerOp, c.ShardAllocsPerOp, c.SpeedupVsDense, c.RefineRate, c.BytesPerNode)
	}

	// Churn epochs: incremental apply vs from-scratch rebuild at n = 5000
	// with 1% of the nodes moving per epoch, in both cache regimes. The
	// matrix regime raises the threshold so the power matrix — the O(n²)
	// state the incremental path exists to avoid rebuilding — is in play at
	// this size; the apply loop cycles a fixed away/back delta pair, so its
	// steady state is allocation-free.
	const churnN = 5000
	for _, reg := range []struct {
		name      string
		threshold int
	}{
		{"churn_matrix", churnN},
		{"churn_grid", -1},
	} {
		ch, deltas, err := sinr.ChurnBenchWorkload(churnN, churnN/100, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		opts := sinr.FastOptions{MatrixThreshold: reg.threshold}
		rebuildRes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := sinr.NewFastChannel(ch, opts)
				f.Close()
			}
		})
		f := sinr.NewFastChannel(ch, opts)
		for _, d := range deltas { // warm buckets, arenas and capacities
			if err := f.ApplyEpoch(d); err != nil {
				fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
				return 1
			}
		}
		var applyErr error
		applyRes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.ApplyEpoch(deltas[i%2]); err != nil {
					applyErr = err
					b.FailNow()
				}
			}
		})
		f.Close()
		if applyErr != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", applyErr)
			return 1
		}
		c := churnCase{
			Name:               reg.name,
			Nodes:              churnN,
			Changed:            churnN / 100,
			RebuildNsPerOp:     float64(rebuildRes.NsPerOp()),
			RebuildAllocsPerOp: rebuildRes.AllocsPerOp(),
			ApplyNsPerOp:       float64(applyRes.NsPerOp()),
			ApplyAllocsPerOp:   applyRes.AllocsPerOp(),
		}
		if c.ApplyNsPerOp > 0 {
			c.SpeedupVsRebuild = c.RebuildNsPerOp / c.ApplyNsPerOp
		}
		report.ChurnCases = append(report.ChurnCases, c)
		fmt.Printf("%-14s n=%-5d c=%-4d rebuild %11.0f ns/op (%d allocs)  apply %10.0f ns/op (%d allocs)  speedup %.1fx\n",
			reg.name, c.Nodes, c.Changed, c.RebuildNsPerOp, c.RebuildAllocsPerOp, c.ApplyNsPerOp, c.ApplyAllocsPerOp, c.SpeedupVsRebuild)
	}

	// Steady-state Engine.Step over pooled frames: the whole pipeline —
	// tick, sparse evaluation, deliveries — with its allocation count,
	// which must stay at zero. The serial/adaptive pairs at n = 2000 and
	// n = 5000 measure what a simulation actually gets from Parallel: true
	// (the crossover settles on whichever driver measured cheaper); the
	// pinned case forces the fused session driver so its cost is tracked
	// even on hosts where the crossover declines it.
	for _, sc := range []struct {
		name    string
		n       int
		workers int // 0 = GOMAXPROCS
		par     bool
		pin     bool
	}{
		{"engine_step", 2000, 1, false, false},
		{"engine_step_parallel", 2000, 0, true, false},
		{"engine_step_5k", 5000, 1, false, false},
		{"engine_step_parallel_5k", 5000, 0, true, false},
		{"engine_step_fused4", 2000, 4, true, true},
	} {
		c, err := benchEngineStep(sc.name, seed, sc.n, sim.Config{
			Seed: seed, Parallel: sc.par, Workers: sc.workers, PinDriver: sc.pin,
		}, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		report.StepCases = append(report.StepCases, c)
		fmt.Printf("%-23s n=%-5d k=%-6.1f %12.0f ns/op (%d allocs)\n",
			c.Name, c.Nodes, c.TxPerSlot, c.NsPerOp, c.AllocsPerOp)
	}
	if err := checkStepCrossover(report.StepCases); err != nil {
		fmt.Fprintf(os.Stderr, "macbench: engine-step crossover gate failed:\n%v\n", err)
		return 1
	}

	// The fault-injection hook's cost to a healthy simulation: the serial
	// n = 2000 workload with a zero-fault injector wired into the engine,
	// gated within-run against an interleaved hook-free run of the same
	// workload (faultHookMaxOverhead over per-side minima).
	fc, err := benchEngineStepFaults(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
		return 1
	}
	report.StepCases = append(report.StepCases, fc)
	fmt.Printf("%-23s n=%-5d k=%-6.1f %12.0f ns/op (%d allocs)\n",
		fc.Name, fc.Nodes, fc.TxPerSlot, fc.NsPerOp, fc.AllocsPerOp)

	// Per-phase breakdown of the sequential step at both deployment sizes,
	// attached to the hook-free sequential cases above. Measured in a
	// separate profiled pass (see benchEnginePhases) so the timed numbers
	// stay instrumentation-free.
	for _, n := range []int{2000, 5000} {
		prof, err := benchEnginePhases(seed, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		if prof.Slots == 0 {
			fmt.Fprintf(os.Stderr, "macbench: phase profile at n=%d recorded no slots\n", n)
			return 1
		}
		slots := float64(prof.Slots)
		tick, eval, recv := float64(prof.TickNs)/slots, float64(prof.EvalNs)/slots, float64(prof.RecvNs)/slots
		for i := range report.StepCases {
			c := &report.StepCases[i]
			if c.Parallel || c.Nodes != n || c.Name == "engine_step_faults" {
				continue
			}
			c.TickNsPerSlot, c.EvalNsPerSlot, c.RecvNsPerSlot = tick, eval, recv
		}
		fmt.Printf("%-23s n=%-5d tick %6.0f ns/slot  eval %8.0f ns/slot  recv %6.0f ns/slot\n",
			"engine_phases", n, tick, eval, recv)
	}

	// The batched executor vs the slot-at-a-time Step loop on the pinned
	// fused-parallel workload, gated within-run (batchRunMinSpeedup, zero
	// steady-state allocations per micro-batch).
	for _, sc := range []struct {
		name string
		n    int
	}{
		{"engine_run_batch", 2000},
		{"engine_run_batch_5k", 5000},
	} {
		c, err := benchEngineRunBatch(sc.name, seed, sc.n, int(sim.DefaultBatchSlots))
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		report.BatchCases = append(report.BatchCases, c)
		fmt.Printf("%-23s n=%-5d b=%-4d step %9.0f ns/slot  batch %9.0f ns/slot (%d allocs/batch)  speedup %.2fx\n",
			c.Name, c.Nodes, c.Batch, c.StepNsPerSlot, c.BatchNsPerSlot, c.BatchAllocsPerOp, c.SpeedupVsStep)
	}

	// The blocked kernel restructurings vs their scalar predecessors,
	// gated within-run (blockedGatherMinSpeedup / blockedFillMinSpeedup).
	for _, bench := range []func(uint64) (blockedCase, error){benchGatherTotals, benchBlockedFill} {
		c, err := bench(seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
			return 1
		}
		report.BlockedCases = append(report.BlockedCases, c)
		fmt.Printf("%-23s n=%-5d k=%-4d scalar %9.0f ns/op  blocked %9.0f ns/op  speedup %.2fx\n",
			c.Name, c.Nodes, c.Transmitters, c.ScalarNsPerOp, c.BlockedNsPerOp, c.SpeedupVsScalar)
	}

	// Pow-free path-loss kernel vs the pre-rewrite math.Pow + math.Hypot
	// arithmetic, per fast-pathed exponent. The α = 2 entry is only
	// reachable through Params directly (channel validation requires
	// α > 2) but pins the cheapest fast path.
	for _, alpha := range []float64{2, 3, 4} {
		c := benchKernelPathLoss(alpha, seed)
		report.KernelCases = append(report.KernelCases, c)
		fmt.Printf("%-23s α=%-3.0f pairs=%-5d pow %6.0f ns/op  fast %6.0f ns/op  speedup %.1fx\n",
			c.Name, c.Alpha, c.Pairs, c.PowNsPerOp, c.FastNsPerOp, c.SpeedupVsPow)
		if c.SpeedupVsPow < 1 {
			fmt.Fprintf(os.Stderr, "macbench: %s: pow-free kernel is slower than math.Pow (%.2fx)\n",
				c.Name, c.SpeedupVsPow)
			return 1
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "macbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "macbench: writing %s: %v\n", outPath, err)
		return 1
	}
	fmt.Printf("wrote %s\n", outPath)

	if summaryPath != "" {
		if err := writeSummary(summaryPath, comparePath, report); err != nil {
			fmt.Fprintf(os.Stderr, "macbench: writing summary %s: %v\n", summaryPath, err)
			return 1
		}
	}
	if comparePath != "" {
		if err := compareReports(comparePath, report); err != nil {
			fmt.Fprintf(os.Stderr, "macbench: regression check against %s failed:\n%v\n", comparePath, err)
			return 1
		}
		fmt.Printf("no gross regressions vs %s (tolerance %.1fx)\n", comparePath, compareTolerance)
	}
	return 0
}

// writeSummary appends a markdown per-case table of the fresh measurements
// — and, when a baseline report is readable, the baseline speedup ratios
// and the current/baseline ratio the -compare gate judges — to path. CI
// points it at $GITHUB_STEP_SUMMARY so every run shows the full table, not
// just the gate's pass/fail.
func writeSummary(path, baselinePath string, fresh benchReport) error {
	baseline := make(map[string]float64)
	if baselinePath != "" {
		if data, err := os.ReadFile(baselinePath); err == nil {
			var base benchReport
			if err := json.Unmarshal(data, &base); err == nil {
				for _, c := range base.Cases {
					baseline[c.Name] = c.SpeedupVsNaive
				}
				for _, c := range base.SparseCases {
					baseline[c.Name] = c.SpeedupVsDense
				}
				for _, c := range base.BoundsCases {
					baseline[c.Name] = c.SpeedupVsDense
				}
				for _, c := range base.ShardCases {
					baseline[c.Name] = c.SpeedupVsDense
				}
				for _, c := range base.ChurnCases {
					baseline[c.Name] = c.SpeedupVsRebuild
				}
				for _, c := range base.BatchCases {
					baseline[c.Name] = c.SpeedupVsStep
				}
				for _, c := range base.BlockedCases {
					baseline[c.Name] = c.SpeedupVsScalar
				}
				for _, c := range base.KernelCases {
					baseline[c.Name] = c.SpeedupVsPow
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### macbench slot-pipeline benchmarks (GOMAXPROCS=%d)\n\n", fresh.GoMaxProcs)
	b.WriteString("| case | n | k | optimised ns/op | allocs/op | speedup | baseline speedup | current/baseline |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	ratioCell := func(name string, speedup float64) string {
		base, ok := baseline[name]
		if !ok || base <= 0 {
			return "— | —"
		}
		return fmt.Sprintf("%.1fx | %.2f", base, speedup/base)
	}
	for _, c := range fresh.Cases {
		fmt.Fprintf(&b, "| %s (fast vs naive) | %d | %d | %.0f | %d | %.1fx | %s |\n",
			c.Name, c.Nodes, c.Transmitters, c.FastNsPerOp, c.FastAllocsPerOp, c.SpeedupVsNaive, ratioCell(c.Name, c.SpeedupVsNaive))
	}
	for _, c := range fresh.SparseCases {
		fmt.Fprintf(&b, "| %s (sparse vs dense) | %d | %d | %.0f | %d | %.1fx | %s |\n",
			c.Name, c.Nodes, c.Transmitters, c.SparseNsPerOp, c.SparseAllocsPerOp, c.SpeedupVsDense, ratioCell(c.Name, c.SpeedupVsDense))
	}
	for _, c := range fresh.BoundsCases {
		fmt.Fprintf(&b, "| %s (bounds vs dense, refine %.3f) | %d | %d | %.0f | %d | %.1fx | %s |\n",
			c.Name, c.RefineRate, c.Nodes, c.Transmitters, c.BoundsNsPerOp, c.BoundsAllocsPerOp, c.SpeedupVsDense, ratioCell(c.Name, c.SpeedupVsDense))
	}
	for _, c := range fresh.ShardCases {
		ratio := "— | —"
		if c.SpeedupVsDense > 0 {
			ratio = ratioCell(c.Name, c.SpeedupVsDense)
		}
		fmt.Fprintf(&b, "| %s (S=%d, refine %.3f, %.1f B/node) | %d | %d | %.0f | %d | %.1fx | %s |\n",
			c.Name, c.Shards, c.RefineRate, c.BytesPerNode, c.Nodes, c.Transmitters, c.ShardNsPerOp, c.ShardAllocsPerOp, c.SpeedupVsDense, ratio)
	}
	for _, c := range fresh.ChurnCases {
		fmt.Fprintf(&b, "| %s (apply vs rebuild) | %d | %d | %.0f | %d | %.1fx | %s |\n",
			c.Name, c.Nodes, c.Changed, c.ApplyNsPerOp, c.ApplyAllocsPerOp, c.SpeedupVsRebuild, ratioCell(c.Name, c.SpeedupVsRebuild))
	}
	for _, c := range fresh.StepCases {
		label := c.Name
		if c.TickNsPerSlot > 0 || c.EvalNsPerSlot > 0 || c.RecvNsPerSlot > 0 {
			label = fmt.Sprintf("%s (tick %.0f / eval %.0f / recv %.0f ns)",
				c.Name, c.TickNsPerSlot, c.EvalNsPerSlot, c.RecvNsPerSlot)
		}
		fmt.Fprintf(&b, "| %s | %d | %.1f | %.0f | %d | — | — | — |\n",
			label, c.Nodes, c.TxPerSlot, c.NsPerOp, c.AllocsPerOp)
	}
	for _, c := range fresh.BatchCases {
		fmt.Fprintf(&b, "| %s (Run b=%d vs Step, per slot) | %d | %.1f | %.0f | %d | %.2fx | %s |\n",
			c.Name, c.Batch, c.Nodes, c.TxPerSlot, c.BatchNsPerSlot, c.BatchAllocsPerOp, c.SpeedupVsStep, ratioCell(c.Name, c.SpeedupVsStep))
	}
	for _, c := range fresh.BlockedCases {
		fmt.Fprintf(&b, "| %s (blocked vs scalar) | %d | %d | %.0f | 0 | %.2fx | %s |\n",
			c.Name, c.Nodes, c.Transmitters, c.BlockedNsPerOp, c.SpeedupVsScalar, ratioCell(c.Name, c.SpeedupVsScalar))
	}
	for _, c := range fresh.KernelCases {
		fmt.Fprintf(&b, "| %s (fast vs pow) | — | %d | %.0f | 0 | %.1fx | %s |\n",
			c.Name, c.Pairs, c.FastNsPerOp, c.SpeedupVsPow, ratioCell(c.Name, c.SpeedupVsPow))
	}
	fmt.Fprintf(&b, "\nRegression gate: speedup ratios may shrink at most %.1fx vs the committed baseline; optimised paths may not allocate more than it.\n", compareTolerance)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(b.String())
	return err
}

// stepBenchNode is the minimal sim.Node used by the Engine.Step benchmark:
// it transmits a data frame with a fixed probability each slot.
type stepBenchNode struct {
	src  *rng.Source
	p    float64
	kind sim.FrameKind
}

func (n *stepBenchNode) Init(id int, src *rng.Source) { n.src = src }

func (n *stepBenchNode) Tick(slot int64, f *sim.Frame) bool {
	if !n.src.Bernoulli(n.p) {
		return false
	}
	f.Kind = n.kind
	f.Msg = core.Message{ID: 1, Origin: 0}
	return true
}

func (n *stepBenchNode) Receive(slot int64, f *sim.Frame) {}

// benchEngineStep measures a steady-state Engine.Step on an n-node sparse
// workload (≈√n transmitters per slot) over the fast evaluator, under the
// driver configuration in cfg. The warm-up runs past the adaptive
// crossover's first probe window so the measured steady state is the driver
// the engine settled on, not the probe schedule. With faultHook set, a
// zero-fault injector is installed the way a fault experiment would install
// it (WrapNodes plus Config.Faults), measuring the hook dispatch cost.
func benchEngineStep(name string, seed uint64, n int, cfg sim.Config, faultHook bool) (stepCase, error) {
	ch, _, err := sinr.SparseBenchWorkload(n, seed)
	if err != nil {
		return stepCase{}, err
	}
	kind := sim.RegisterFrameKind("macbench.step")
	txPerSlot := math.Sqrt(float64(n))
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &stepBenchNode{p: txPerSlot / float64(n), kind: kind}
	}
	if faultHook {
		inj, err := fault.NewInjector(fault.Plan{Seed: seed}, n)
		if err != nil {
			return stepCase{}, err
		}
		nodes = inj.WrapNodes(nodes)
		cfg.Faults = inj
	}
	fast := sinr.NewFastChannel(ch)
	defer fast.Close()
	cfg.Evaluator = fast
	eng, err := sim.NewEngine(ch, nodes, cfg)
	if err != nil {
		return stepCase{}, err
	}
	eng.Run(64, nil) // warm pool and buffers; complete the probe window
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
	return stepCase{
		Name:        name,
		Nodes:       n,
		TxPerSlot:   txPerSlot,
		Parallel:    cfg.Parallel,
		Pinned:      cfg.PinDriver,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
	}, nil
}

// benchEngineStepFaults measures engine_step_faults — the serial n = 2000
// engine-step workload with a zero-fault injector installed — and enforces
// the faultHookMaxOverhead gate against an interleaved hook-free run of the
// identical workload. Both sides are re-measured in rounds and judged on
// per-side minima, so a transient frequency dip cannot fail the gate while
// a persistent per-slot dispatch cost still does.
func benchEngineStepFaults(seed uint64) (stepCase, error) {
	const n = 2000
	cfg := sim.Config{Seed: seed, Workers: 1}
	plain, err := benchEngineStep("engine_step", seed, n, cfg, false)
	if err != nil {
		return stepCase{}, err
	}
	faults, err := benchEngineStep("engine_step_faults", seed, n, cfg, true)
	if err != nil {
		return stepCase{}, err
	}
	for round := 1; round < faultHookRounds && faults.NsPerOp > plain.NsPerOp*faultHookMaxOverhead; round++ {
		p, err := benchEngineStep("engine_step", seed, n, cfg, false)
		if err != nil {
			return stepCase{}, err
		}
		f, err := benchEngineStep("engine_step_faults", seed, n, cfg, true)
		if err != nil {
			return stepCase{}, err
		}
		if p.NsPerOp < plain.NsPerOp {
			plain = p
		}
		if f.NsPerOp < faults.NsPerOp {
			faults = f
		}
	}
	if faults.NsPerOp > plain.NsPerOp*faultHookMaxOverhead {
		return stepCase{}, fmt.Errorf(
			"engine_step_faults gate failed: zero-fault hook %.0f ns/op vs hook-free %.0f ns/op exceeds %.2fx — the fault layer is taxing healthy simulations",
			faults.NsPerOp, plain.NsPerOp, faultHookMaxOverhead)
	}
	return faults, nil
}

// benchEnginePhases measures the sequential driver's per-phase split on
// the benchEngineStep workload: a fresh engine with sim.Config.Profile
// installed runs phaseProfileSlots slots after warm-up, and the accumulated
// tick / evaluate / receive wall clock is divided back to ns per slot. A
// separate engine is used on purpose — the profiled driver brackets every
// phase with time.Now, and that instrumentation must not leak into the
// headline NsPerOp of the timed cases.
func benchEnginePhases(seed uint64, n int) (sim.PhaseStats, error) {
	const phaseProfileSlots = 2048
	ch, _, err := sinr.SparseBenchWorkload(n, seed)
	if err != nil {
		return sim.PhaseStats{}, err
	}
	kind := sim.RegisterFrameKind("macbench.step")
	txPerSlot := math.Sqrt(float64(n))
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &stepBenchNode{p: txPerSlot / float64(n), kind: kind}
	}
	fast := sinr.NewFastChannel(ch)
	defer fast.Close()
	var prof sim.PhaseStats
	eng, err := sim.NewEngine(ch, nodes, sim.Config{
		Seed: seed, Workers: 1, Evaluator: fast, Profile: &prof,
	})
	if err != nil {
		return sim.PhaseStats{}, err
	}
	eng.Run(64, nil) // warm pool, buffers and caches
	prof = sim.PhaseStats{}
	eng.Run(phaseProfileSlots, nil)
	return prof, nil
}

// benchEngineRunBatch measures the batched executor against the
// slot-at-a-time Step loop on the benchEngineStep workload with the fused
// parallel driver pinned on: the Step side pays one workpool session
// (helper wake + park) per slot, the RunBatch side one per batch-slot
// micro-batch. Each side gets its own engine so both are measured in
// steady state; the executions are bit-identical regardless (the
// differential suite in internal/sim pins that), so node-state divergence
// between the two engines cannot skew the comparison. The
// batchRunMinSpeedup gate and the zero-alloc check are enforced here, on
// per-side minima over up to batchRunRounds interleaved rounds.
func benchEngineRunBatch(name string, seed uint64, n, batch int) (batchCase, error) {
	buildEngine := func(batchSize int) (*sim.Engine, func(), error) {
		ch, _, err := sinr.SparseBenchWorkload(n, seed)
		if err != nil {
			return nil, nil, err
		}
		kind := sim.RegisterFrameKind("macbench.step")
		txPerSlot := math.Sqrt(float64(n))
		nodes := make([]sim.Node, n)
		for i := range nodes {
			nodes[i] = &stepBenchNode{p: txPerSlot / float64(n), kind: kind}
		}
		fast := sinr.NewFastChannel(ch)
		eng, err := sim.NewEngine(ch, nodes, sim.Config{
			Seed: seed, Parallel: true, Workers: 4, PinDriver: true,
			Batch: batchSize, Evaluator: fast,
		})
		if err != nil {
			fast.Close()
			return nil, nil, err
		}
		return eng, fast.Close, nil
	}
	// measure times one round of both sides: the per-slot Step loop and the
	// batched Run, freshly built so every round starts from the same state.
	measure := func() (step, batched testing.BenchmarkResult, err error) {
		engS, closeS, err := buildEngine(1)
		if err != nil {
			return step, batched, err
		}
		engS.Run(64, nil)
		step = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engS.Step()
			}
		})
		closeS()
		engB, closeB, err := buildEngine(batch)
		if err != nil {
			return step, batched, err
		}
		engB.Run(int64(2*batch), nil)
		batched = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engB.RunBatch(batch)
			}
		})
		closeB()
		return step, batched, nil
	}
	step, batched, err := measure()
	if err != nil {
		return batchCase{}, err
	}
	stepNs, batchNs := float64(step.NsPerOp()), float64(batched.NsPerOp())
	stepAllocs, batchAllocs := step.AllocsPerOp(), batched.AllocsPerOp()
	perSlot := func() float64 { return batchNs / float64(batch) }
	for round := 1; round < batchRunRounds && stepNs < perSlot()*batchRunMinSpeedup; round++ {
		s, b, err := measure()
		if err != nil {
			return batchCase{}, err
		}
		if float64(s.NsPerOp()) < stepNs {
			stepNs, stepAllocs = float64(s.NsPerOp()), s.AllocsPerOp()
		}
		if float64(b.NsPerOp()) < batchNs {
			batchNs, batchAllocs = float64(b.NsPerOp()), b.AllocsPerOp()
		}
	}
	c := batchCase{
		Name:              name,
		Nodes:             n,
		TxPerSlot:         math.Sqrt(float64(n)),
		Batch:             batch,
		StepNsPerSlot:     stepNs,
		StepAllocsPerSlot: stepAllocs,
		BatchNsPerSlot:    perSlot(),
		BatchAllocsPerOp:  batchAllocs,
	}
	if c.BatchNsPerSlot > 0 {
		c.SpeedupVsStep = c.StepNsPerSlot / c.BatchNsPerSlot
	}
	if c.BatchAllocsPerOp != 0 {
		return batchCase{}, fmt.Errorf(
			"%s gate failed: RunBatch(%d) allocates %d objects per batch in steady state, want 0",
			name, batch, c.BatchAllocsPerOp)
	}
	if c.SpeedupVsStep < batchRunMinSpeedup {
		return batchCase{}, fmt.Errorf(
			"%s gate failed: batched executor %.0f ns/slot vs Step loop %.0f ns/slot (%.2fx < %.2fx) — batching is adding per-slot cost instead of amortising session overhead",
			name, c.BatchNsPerSlot, c.StepNsPerSlot, c.SpeedupVsStep, batchRunMinSpeedup)
	}
	return c, nil
}

// benchBlockedKernel measures one blocked-vs-scalar kernel pair through the
// exported bench entry points, enforcing minSpeedup on per-side minima over
// up to blockedKernelRounds interleaved rounds.
func benchBlockedKernel(c blockedCase, minSpeedup float64, run func(blocked bool) testing.BenchmarkResult) (blockedCase, error) {
	scalar := float64(run(false).NsPerOp())
	blocked := float64(run(true).NsPerOp())
	for round := 1; round < blockedKernelRounds && scalar < blocked*minSpeedup; round++ {
		if s := float64(run(false).NsPerOp()); s < scalar {
			scalar = s
		}
		if b := float64(run(true).NsPerOp()); b < blocked {
			blocked = b
		}
	}
	c.ScalarNsPerOp = scalar
	c.BlockedNsPerOp = blocked
	if c.BlockedNsPerOp > 0 {
		c.SpeedupVsScalar = c.ScalarNsPerOp / c.BlockedNsPerOp
	}
	if c.SpeedupVsScalar < minSpeedup {
		return blockedCase{}, fmt.Errorf(
			"%s gate failed: blocked kernel %.0f ns/op vs scalar %.0f ns/op (%.2fx < %.2fx)",
			c.Name, c.BlockedNsPerOp, c.ScalarNsPerOp, c.SpeedupVsScalar, minSpeedup)
	}
	return c, nil
}

// benchGatherTotals measures the matrix regime's transmitter-major totals
// pass (four transmitter rows per sweep over the receivers, with the
// strongest-sender tracking the decode needs) against the scalar
// per-receiver tx-order sum. The workload is kernel_pathloss-style: small
// enough that the power matrix is cache-resident (n = 512, 2 MB) and dense
// enough that rows are scanned contiguously (every node transmits, the
// bounds_full slot shape), so the ratio isolates the restructuring —
// scalar pays one loop-carried FP add latency per element, the
// transmitter-major pass runs one independent chain per receiver. On
// workloads that stream the matrix from DRAM both sides are
// bandwidth-bound and the ratio compresses toward 1; that regime is
// already covered by the slot-path cases above.
func benchGatherTotals(seed uint64) (blockedCase, error) {
	const n = 512
	ch, _, err := sinr.BenchWorkload(n, seed)
	if err != nil {
		return blockedCase{}, err
	}
	f := sinr.NewFastChannel(ch, sinr.FastOptions{MatrixThreshold: n, SparseFactor: -1})
	defer f.Close()
	tx := make([]int, n)
	for i := range tx {
		tx[i] = i
	}
	f.SlotReceptions(tx[:1]) // warm: materialise the power matrix
	out := make([]float64, n)
	c := blockedCase{Name: "txmajor_gather_totals", Nodes: n, Transmitters: len(tx)}
	return benchBlockedKernel(c, blockedGatherMinSpeedup, func(txMajor bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.BenchGatherTotals(out, 0, n, tx, txMajor)
			}
		})
	})
}

// benchBlockedFill measures the blocked power-column fill (fillColumn's
// 4-wide distance/path-loss lanes with the exponent dispatch hoisted)
// against the scalar pairPower loop it replaced, on a grid-regime workload
// where column fills are the cache-miss path.
func benchBlockedFill(seed uint64) (blockedCase, error) {
	const n = 4000
	ch, _, err := sinr.BenchWorkload(n, seed)
	if err != nil {
		return blockedCase{}, err
	}
	f := sinr.NewFastChannel(ch)
	defer f.Close()
	dst := make([]float64, n)
	c := blockedCase{Name: "blocked_fill_column", Nodes: n}
	return benchBlockedKernel(c, blockedFillMinSpeedup, func(blocked bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.BenchFillColumn(dst, i%16, blocked)
			}
		})
	})
}

// kernelSink defeats dead-code elimination of the benchmark loops below.
var kernelSink float64

// benchKernelPathLoss measures the path-loss arithmetic over a fixed set of
// random point pairs: the pre-rewrite composition (math.Hypot distance,
// math.Pow loss) against the shipped one (Sqrt distance, integer-α
// multiplication in Params.ReceivedPower). Both sides run the identical
// loop shape over identical pairs, so the ratio isolates the arithmetic.
func benchKernelPathLoss(alpha float64, seed uint64) kernelCase {
	const pairs = 4096
	params := sinr.Params{Alpha: alpha, Beta: 1.5, Noise: 1e-9, Power: 1, Epsilon: 0.1}
	src := rng.New(seed)
	ax := make([]float64, pairs)
	ay := make([]float64, pairs)
	bx := make([]float64, pairs)
	by := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		ax[i] = src.Float64() * 200
		ay[i] = src.Float64() * 200
		bx[i] = src.Float64() * 200
		by[i] = src.Float64() * 200
	}
	powRes := testing.Benchmark(func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			for j := 0; j < pairs; j++ {
				d := math.Hypot(ax[j]-bx[j], ay[j]-by[j])
				if d < 1 {
					d = 1
				}
				s += params.Power / math.Pow(d, params.Alpha)
			}
		}
		kernelSink = s
	})
	fastRes := testing.Benchmark(func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			for j := 0; j < pairs; j++ {
				dx := ax[j] - bx[j]
				dy := ay[j] - by[j]
				s += params.ReceivedPower(math.Sqrt(dx*dx + dy*dy))
			}
		}
		kernelSink = s
	})
	c := kernelCase{
		Name:        fmt.Sprintf("kernel_pathloss_a%.0f", alpha),
		Alpha:       alpha,
		Pairs:       pairs,
		PowNsPerOp:  float64(powRes.NsPerOp()),
		FastNsPerOp: float64(fastRes.NsPerOp()),
	}
	if c.FastNsPerOp > 0 {
		c.SpeedupVsPow = c.PowNsPerOp / c.FastNsPerOp
	}
	return c
}

// measureShardCase measures the sharded evaluator on an n-node dense
// workload with k transmitters per slot, together with the settled heap
// footprint of channel + evaluator + one evaluated slot. The footprint is a
// GC-settled runtime.MemStats HeapAlloc delta around the whole build — it is
// what a simulation at this scale actually holds live, and it is the number
// the sinr.ShardBytesPerNodeBudget gate judges. When withDense is set the
// same slot is also timed over the per-pair dense scan (sharding and bounds
// pinned off) so the case carries a within-run speedup ratio; at the -large
// scale the dense scan is minutes per op and is skipped.
func measureShardCase(name string, n, k, shards int, seed uint64, withDense bool) (shardCase, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ch, tx, err := sinr.DenseBenchWorkload(n, k, seed)
	if err != nil {
		return shardCase{}, err
	}
	shard := sinr.NewFastChannel(ch, sinr.FastOptions{Shards: shards, SparseFactor: -1})
	shardCount := shard.Shards()
	if shardCount == 0 {
		shard.Close()
		return shardCase{}, fmt.Errorf("%s: sharded configuration fell back to a per-pair regime", name)
	}
	shard.SlotReceptions(tx) // warm: builds the shard index and scratch
	runtime.GC()
	runtime.ReadMemStats(&after)
	var heap uint64
	if after.HeapAlloc > before.HeapAlloc {
		heap = after.HeapAlloc - before.HeapAlloc
	}
	shard.ResetBoundsStats()
	shardRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shard.SlotReceptions(tx)
		}
	})
	st := shard.BoundsStats()
	shard.Close()
	c := shardCase{
		Name:             name,
		Nodes:            n,
		Transmitters:     len(tx),
		Shards:           shardCount,
		ShardNsPerOp:     float64(shardRes.NsPerOp()),
		ShardAllocsPerOp: shardRes.AllocsPerOp(),
		RefineRate:       st.RefineRate(),
		RSSBytes:         heap,
		BytesPerNode:     float64(heap) / float64(n),
	}
	if withDense {
		dense := sinr.NewFastChannel(ch, sinr.FastOptions{
			MatrixThreshold: -1, SparseFactor: -1, BoundsFactor: -1, Shards: -1,
		})
		denseRes := benchSlot(dense, tx)
		dense.Close()
		c.DenseNsPerOp = float64(denseRes.NsPerOp())
		c.DenseAllocsPerOp = denseRes.AllocsPerOp()
		if c.ShardNsPerOp > 0 {
			c.SpeedupVsDense = c.DenseNsPerOp / c.ShardNsPerOp
		}
	}
	return c, nil
}

// checkStepCrossover enforces the engine-step crossover gate on the fresh
// measurements: for every deployment size of at least stepCrossoverMinNodes
// that has both a sequential case and an adaptive (unpinned parallel) case,
// the adaptive driver must not exceed the sequential cost by more than
// stepCrossoverTolerance. This is the user-facing contract of the adaptive
// driver — enabling Parallel never costs more than a sliver, on any host.
func checkStepCrossover(cases []stepCase) error {
	serialByN := make(map[int]stepCase)
	for _, c := range cases {
		if !c.Parallel {
			serialByN[c.Nodes] = c
		}
	}
	var problems []string
	for _, c := range cases {
		if !c.Parallel || c.Pinned || c.Nodes < stepCrossoverMinNodes {
			continue
		}
		ref, ok := serialByN[c.Nodes]
		if !ok || ref.NsPerOp <= 0 {
			continue
		}
		if c.NsPerOp > ref.NsPerOp*stepCrossoverTolerance {
			problems = append(problems, fmt.Sprintf(
				"  %s: adaptive driver %.0f ns/op vs sequential %s %.0f ns/op exceeds %.1fx",
				c.Name, c.NsPerOp, ref.Name, ref.NsPerOp, stepCrossoverTolerance))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "\n"))
	}
	return nil
}

// compareReports checks the fresh measurements against a committed
// baseline using only machine-invariant quantities: the fast-over-naive,
// sparse-over-dense, bounds-over-dense and apply-over-rebuild speedup
// ratios (each measured within one run on one machine) must not shrink
// beyond compareTolerance, and no optimised path or steady-state step may
// allocate more than the baseline did.
//
// Every baseline case must reappear in the fresh report: a benchmark that
// is deleted or renamed without refreshing the committed baseline would
// otherwise silently slip past the regression gate, so a missing
// counterpart is itself a gate failure. Fresh-only cases remain allowed —
// adding a benchmark must not break the first run against an old baseline.
func compareReports(baselinePath string, fresh benchReport) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	var problems []string
	freshByKey := make(map[string]gateCase)
	for _, f := range gateCases(fresh) {
		freshByKey[f.family+"/"+f.name] = f
	}
	for _, b := range gateCases(base) {
		f, ok := freshByKey[b.family+"/"+b.name]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"  %s case %q exists in the baseline but not in the fresh report: deleted or renamed benchmarks must refresh the committed baseline",
				b.family, b.name))
			continue
		}
		if b.speedupLabel != "" && b.speedup > 0 && f.speedup < b.speedup/compareTolerance {
			problems = append(problems, fmt.Sprintf(
				"  %s/%s: speedup %.1fx vs baseline %.1fx (shrank by more than %.1fx)",
				f.name, f.speedupLabel, f.speedup, b.speedup, compareTolerance))
		}
		if f.allocs > b.allocs {
			name := f.name
			if f.allocsLabel != "" {
				name += "/" + f.allocsLabel
			}
			problems = append(problems, fmt.Sprintf(
				"  %s: %d allocs/op vs baseline %d", name, f.allocs, b.allocs))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "\n"))
	}
	return nil
}

// gateCase is one benchmark case flattened to the machine-invariant
// quantities the -compare gate judges, so every case family goes through
// one comparison loop.
type gateCase struct {
	family string
	name   string
	// speedupLabel names the checked ratio; empty means the family carries
	// no speedup ratio (only the alloc check applies).
	speedupLabel string
	speedup      float64
	allocsLabel  string
	allocs       int64
}

// gateCases flattens a report into the gate's comparison entries.
func gateCases(r benchReport) []gateCase {
	var out []gateCase
	for _, c := range r.Cases {
		out = append(out, gateCase{"slot-path", c.Name, "fast-vs-naive", c.SpeedupVsNaive, "fast", c.FastAllocsPerOp})
	}
	for _, c := range r.SparseCases {
		out = append(out, gateCase{"sparse", c.Name, "sparse-vs-dense", c.SpeedupVsDense, "sparse", c.SparseAllocsPerOp})
	}
	for _, c := range r.BoundsCases {
		out = append(out, gateCase{"bounds", c.Name, "bounds-vs-dense", c.SpeedupVsDense, "bounds", c.BoundsAllocsPerOp})
	}
	for _, c := range r.ShardCases {
		// Dense-less cases (the -large smoke) carry speedup 0, which the
		// gate's speedup check already skips; the alloc check still applies.
		out = append(out, gateCase{"shard", c.Name, "shard-vs-dense", c.SpeedupVsDense, "shard", c.ShardAllocsPerOp})
	}
	for _, c := range r.ChurnCases {
		out = append(out, gateCase{"churn", c.Name, "apply-vs-rebuild", c.SpeedupVsRebuild, "apply", c.ApplyAllocsPerOp})
	}
	for _, c := range r.StepCases {
		out = append(out, gateCase{"step", c.Name, "", 0, "", c.AllocsPerOp})
	}
	for _, c := range r.BatchCases {
		out = append(out, gateCase{"batch", c.Name, "batch-vs-step", c.SpeedupVsStep, "batch", c.BatchAllocsPerOp})
	}
	for _, c := range r.BlockedCases {
		out = append(out, gateCase{"blocked", c.Name, "blocked-vs-scalar", c.SpeedupVsScalar, "", 0})
	}
	for _, c := range r.KernelCases {
		out = append(out, gateCase{"kernel", c.Name, "fast-vs-pow", c.SpeedupVsPow, "", 0})
	}
	return out
}

func measure(n, trials int, seed uint64, base func(float64) approgress.Config, mutate func(*approgress.Config)) ([]float64, int64, error) {
	var latencies []float64
	var epochLen int64
	for trial := 0; trial < trials; trial++ {
		s := seed + uint64(trial)*7919
		d, err := topology.Clusters(1, n, sinr.DefaultParams(30), rng.New(s))
		if err != nil {
			return nil, 0, err
		}
		cfg := base(d.Lambda())
		mutate(&cfg)
		epochLen = cfg.EpochLen()

		probe := &listener{rcvSlot: -1}
		simNodes := make([]sim.Node, d.NumNodes())
		apNodes := make([]*approgress.Node, d.NumNodes())
		for i := range simNodes {
			node := approgress.NewNode(cfg, 0, nil)
			if i == 0 {
				node.SetLayer(probe)
			}
			apNodes[i] = node
			simNodes[i] = node
		}
		ch, err := d.Channel()
		if err != nil {
			return nil, 0, err
		}
		// The ablation sweeps run many trials over dense clusters; select
		// the fast SINR evaluator explicitly (identical executions to the
		// naive reference, differentially tested in internal/sinr).
		eng, err := sim.NewEngine(ch, simNodes, sim.Config{Seed: s, Evaluator: sinr.NewFastChannel(ch)})
		if err != nil {
			return nil, 0, err
		}
		for i := 1; i < d.NumNodes(); i++ {
			apNodes[i].Bcast(0, core.Message{ID: core.MessageID(1000 + i), Origin: i})
		}
		deadline := 4 * cfg.EpochLen()
		eng.Run(deadline, func() bool { return probe.rcvSlot >= 0 })
		first := probe.rcvSlot
		if first < 0 {
			first = deadline
		}
		latencies = append(latencies, float64(first))
	}
	return latencies, epochLen, nil
}
