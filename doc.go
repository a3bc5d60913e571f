// Package sinrmac is a simulation-backed reproduction of "A Local Broadcast
// Layer for the SINR Network Model" (Halldórsson, Holzer, Lynch; PODC
// 2015).
//
// The implementation lives under internal/: the SINR physical model and
// slotted simulator (internal/sinr, internal/sim), the abstract MAC layer
// specification and checker (internal/core), the acknowledgment and
// approximate-progress algorithms (internal/hmbcast, internal/approgress),
// the combined MAC of Algorithm 11.1 (internal/mac), the higher-level
// broadcast and consensus protocols (internal/bcastproto,
// internal/consensus) and the experiment harness that regenerates the
// paper's tables and figures (internal/exp).
//
// # Channel evaluator architecture
//
// Slot evaluation — deciding, for a set of concurrent transmitters, which
// node decodes which frame under the SINR predicate — is the hot path every
// simulation funnels through. It is abstracted behind the
// sinr.ChannelEvaluator interface, with two implementations:
//
//   - the naive reference: sinr.Channel.SlotReceptions, a deliberately
//     simple O(n·k) scan that allocates fresh storage per slot and
//     recomputes every received power. It defines the semantics and is the
//     default path of sim.Engine.
//   - the fast engine: sinr.FastChannel, which reuses a per-channel scratch
//     arena and selects one of four regimes at construction (see below):
//     the cached power matrix for small deployments, the spatial-grid
//     column-cache regime above it, and the sharded regime at scale.
//
// The regime decision tree, applied once at construction (FastOptions can
// pin every branch):
//
//   - n ≤ sinr.DefaultMatrixThreshold: the matrix regime — the full n×n
//     received-power matrix is precomputed and every slot is served from
//     it. Explicit small-n fast path; memory O(n²).
//   - n above the matrix threshold but at most sinr.DefaultShardThreshold:
//     the grid regime — a spatial grid (internal/geom) culls far-field
//     receivers and per-sender power columns are cached lazily. The cache
//     is bounded by FastOptions.ColumnCacheBytes (default
//     sinr.DefaultColumnCacheBytes): a clock (second-chance) sweep evicts
//     cold columns, columns referenced by the slot in flight are pinned,
//     overflow past the budget is computed uncached, and
//     FastChannel.ColumnStats exposes lifetime hit/miss/eviction counters.
//     Memory O(n + budget).
//   - n past sinr.DefaultShardThreshold (or FastOptions.Shards pinned):
//     the sharded regime — the primary representation at scale, memory
//     O(occupied cells + nodes) with no per-pair state (measured ~105 heap
//     bytes/node at n = 10⁶ against the documented
//     sinr.ShardBytesPerNodeBudget). The occupied-cell decomposition is
//     partitioned into vertical cell-column stripes, one shard each, over
//     a coarser supercell layer (8×8 cells). Each shard evaluates its
//     receivers against exact near-field terms plus certified remote
//     aggregates. Deployments whose lattice extent would overflow the
//     per-offset tables (sinr's boundsMaxOffsets) latch the regime off and
//     fall back to the grid regime.
//
// Per slot, every regime first takes the sparse dispatch when the estimated
// transmitter-ball coverage is below the documented crossover: sender-
// centric enumeration of only the receivers inside some transmitter's
// culling ball (every other receiver provably decodes nothing), making
// sparse-slot cost output-sensitive instead of Θ(n·k). All-transmit slots
// short-circuit in O(k) on every regime (half-duplex leaves no listener).
// Dense slots then evaluate per the regime: matrix/grid stream receivers
// against the cached powers, with the hierarchical-bounds tier taking over
// inside the grid regime when k dwarfs the number of occupied cells (per
// the cost model of sinr's prepareBounds) — transmitters aggregate per grid
// cell in O(k) and each receiver evaluates in O(occupied cells), near cells
// expanded exactly, far cells bounded via precomputed per-cell-offset power
// bounds (geom.CellIndex, geom.CellOffsetDistBounds).
//
// The certificate invariant shared by the bounds tier and the sharded
// regime makes both decision-exact: lower- and upper-bound interference
// aggregates are widened by the rounding slack ε_k = Θ(k)·ulp, so they
// conservatively bracket the floating-point interference sum the exact
// path computes in any summation order, and a decode/silence decision is
// emitted directly whenever both certificates agree. In the sharded regime
// this is also the cross-shard invariant: a shard sums exact per-cell
// aggregates over its 3×3 supercell neighbourhood and certified
// per-supercell-offset bounds for everything remote, so no shard ever
// reads another shard's per-receiver state, yet the emitted decision is
// identical to the global exact evaluation — only receivers inside the
// resulting thin ambiguous band around β refine through the exact
// per-receiver arithmetic (measured refine rate ~5% on the canonical dense
// workload at n = 5000, ~9% at n = 10⁶; reported per benchmark case).
//
// Receivers are scanned by a persistent worker pool (internal/workpool)
// wired to sim.Config.Workers.
//
// The regimes all produce bit-identical Reception slices at any shard and
// worker count: culling, sparse enumeration and the certificates only skip
// work whose outcome is provably fixed, and the differential property tests
// (TestSlotReceptionsEquivalence, TestSparseSenderCentricEquivalence,
// TestBoundsTierEquivalence, TestShardedEquivalence with S ∈ {1,2,4,8}
// and the on-threshold adversarial TestBoundsThresholdRefine in
// internal/sinr) hold them to that across randomized topologies, densities,
// transmitter counts and worker counts.
// Drivers select a path explicitly via sim.Config.Evaluator; the
// experiment harness (internal/exp), cmd/macbench and cmd/sinrsim use the
// fast engine, while unit tests exercising channel semantics keep the
// reference path.
//
// # Frame lifecycle
//
// The steady-state slot path allocates nothing. sim.Engine owns one pooled
// frame per node and hands node i its frame on every Tick; a transmitting
// node fills the frame and returns true, and receivers are handed a
// pointer to that same frame. Frame kinds are interned integers
// (sim.RegisterFrameKind, registered once per protocol at package init),
// the common bcast-message payload travels in the typed Frame.Msg slot,
// and the approximate-progress control payloads are pointers into
// per-automaton scratch. Two rules follow: a pooled frame and its payload
// are valid only until the end of the slot (nodes and observers that
// retain payload data must copy it — the spec recorder and checker are
// unaffected because they only see copied core.Event values), and frame
// fields are not cleared between slots, so receivers read only the fields
// their Kind defines. The parallel driver runs tick, evaluation and
// receive inside one fused worker-pool session (internal/workpool
// Begin/End): helpers are woken once per slot and advance through the
// phases on an atomic phase generation, chunk widths are sized from
// EWMA-measured per-node phase costs, and a periodically recalibrated
// serial-vs-parallel probe picks whichever driver measures cheaper on the
// running workload (sim.Config.PinDriver bypasses the crossover;
// sim.Engine.DriverStats exposes the measurements). Both drivers produce
// bit-identical executions, and TestEngineStepAllocFree asserts zero
// allocations per steady-state Engine.Step on all of them.
//
// Path-loss arithmetic is pow-free on the hot paths: integer exponents
// α ∈ {2, 3, 4} evaluate by multiplication, bit-identical to math.Pow
// (internal/sinr's kernel differential tests pin this), and sparse/bounds
// threshold comparisons stay in the squared-distance domain.
//
// # Static invariants (sinrlint)
//
// The invariants above are dynamic contracts: the differential suites
// assert bit-identity on the topologies they draw, the alloc gates on the
// workloads they run. cmd/sinrlint (internal/analysis) is the static side
// of the same contracts — a suite of go/analysis-style analyzers that
// reject the constructs which break them, in any code path, before a test
// ever executes. It runs standalone (`go run ./cmd/sinrlint ./...`) and as
// a `go vet -vettool`, and CI enforces it on every push. Five analyzers:
//
//   - detrand: no math/rand (or crypto/rand) and no wall-clock reads
//     (time.Now, time.Since, ...) in the decision-path packages — every
//     outcome must derive from explicit seeds via internal/rng labelled
//     splits. The driver-calibration timing probes, whose measurements
//     only pick between bit-identical drivers, are annotated.
//   - maporder: no `for range` over a map whose body appends to a slice,
//     accumulates floating-point sums, prints, sends, emits sim.Frames or
//     draws randomness — Go's randomized map order would leak into
//     output. Collect-then-sort in the same block is recognized as safe.
//   - frameretain: no Tick/Receive body stores the engine-owned
//     *sim.Frame (or its Msg/Payload pointers) into fields, slices, maps,
//     channels or closures — the pooled frame is valid only until the end
//     of the slot; retaining a copy (*f) is the sanctioned pattern.
//   - powfree: no math.Pow or math.Hypot in internal/sinr and
//     internal/geom outside annotated reference or construction-time
//     code, pinning the pow-free kernel arithmetic.
//   - hotalloc: functions annotated //sinrlint:hotpath (the slot-path
//     chunk kernels and the protocol automata's Tick, which read a
//     schedule computed once at construction) must contain no allocating
//     constructs — make/new,
//     map/slice literals, non-self append, interface boxing, capturing
//     closures, fmt calls, string concatenation.
//
// Exceptions are explicit and justified in-source: a comment
// `//sinrlint:allow <analyzer> <why>` pardons its own line and the next
// (or, in a declaration's doc comment, the whole declaration), and every
// annotation carries the argument for why the invariant is not at risk.
// The analyzers are built on a self-contained framework (internal/analysis,
// internal/analysis/driver) with analysistest-style fixture tests per
// analyzer, so the gate itself is tested code.
//
// # Execution model
//
// Simulations advance in micro-batches. sim.Engine.RunBatch(b) executes up
// to b slots as one unit, and Run slices its horizon into micro-batches of
// sim.Config.Batch slots (default sim.DefaultBatchSlots; Batch = 1 is the
// slot-at-a-time loop). Under the fused parallel driver a whole micro-batch
// runs inside a single workpool session: the helpers are woken once per
// batch and the phase barrier advances through all 3·b tick/evaluate/
// receive phases before they park, amortising the per-slot wake/park the
// per-slot driver pays (the engine_run_batch macbench cases gate that
// batching never loses to the Step loop and stays allocation-free). The
// adaptive serial/parallel probe is consulted once per batch (probe slots
// still run one at a time, so the calibration schedule is byte-identical
// to the Step loop's).
//
// Batching is invisible to everything observing the simulation. Observers,
// recorders, the fault hook, stat counters and stop-condition polls fire
// between slots in exact slot order — inside an open session the helpers
// are spinning or parked at the barrier while the leader runs the serial
// interludes — and Engine.Slot reads consistently at every callback. A
// Run(deadline, stop) stop condition is polled before every slot, so a
// graceful shutdown (cmd/sinrsim's first SIGINT) lands within the current
// micro-batch, never after it. What a callback may not do is re-enter the
// engine: Step/Run/RunBatch panic from inside a running batch, and
// ApplyEpoch/Reset return an error — state mutations are flush points that
// must land on the batch boundary, after the driver has left the session.
// The whole contract is differential: TestRunBatchBitIdentity holds batch
// sizes {1, 7, 64} bit-identical to the Step loop across drivers, fault
// plans and mid-run churn epochs.
//
// The kernels under a batch are restructured SIMD-friendly without
// changing a single emitted bit. The matrix regime runs each slot as one
// transmitter-major pass: the power matrix is bit-symmetric, so row s holds
// transmitter s's power at every receiver, and the pass streams four
// transmitter rows at a time over the chunk's receivers into per-receiver
// accumulators. Each receiver's total still adds the same terms in the
// same tx order, so it is bit-identical to the scalar loop; what the
// restructuring buys is contiguous row segments instead of one cache line
// per (receiver, transmitter) pair, and one independent FP add chain per
// receiver instead of one loop-carried chain (txmajor_gather_totals
// measures the totals pass, gated ≥ 1.15× within every macbench run). The
// same pass tracks each receiver's first strongest transmitter, and the
// decode tests only that sender: because β > 1, a sender with a rival of
// equal or greater power sees a rounded SINR ≤ 1 (the paper's
// at-most-one-decodable argument, Section 4.6, holds in floating point
// too, as the kernel's doc comment shows), so the first sender that passes
// the reference's scan is the strict maximum or nobody. The grid column
// fill, the bounds-tier per-cell aggregation and the sharded regime's
// remote-aggregate sums process four receivers (or receiver cells) per
// pass over the transmitter data, again adding each receiver's terms in tx
// order, and the k·ulp certificate slack of the bounds/shard tiers is
// computed exactly as before.
//
// # Dynamic deployments
//
// Deployments are no longer frozen at construction: topology.Deployment
// batches AddNode/RemoveNode/MoveNode mutations into epochs that
// CommitEpoch applies atomically — revalidating the unit-distance
// invariant (a rejected epoch leaves the deployment untouched),
// invalidating every cached derived quantity (strong/approximation/weak
// graphs, Λ) and returning a sinr.EpochDelta that owns the post-epoch
// positions plus the change structure (dirty slots, swap-remove relabels,
// added ids).
//
// Applying a delta to a live evaluator is incremental:
// sinr.FastChannel.ApplyEpoch patches the dirty power-matrix rows/columns
// (O(dirty·n) math.Pow instead of the O(n²/2) rebuild), moves the affected
// spatial-grid buckets, re-buckets the bounds tier's cell index in place
// (geom.CellIndex.ApplyChurn — the per-offset power tables survive
// unchanged since they depend only on the lattice span) and drops only the
// grid regime's stale column cache. Past sinr.ChurnRebuildFraction of the
// deployment changing in one epoch the patch stops paying and ApplyEpoch
// falls back to a full rebuild; both paths are held bit-identical to a
// from-scratch evaluator by the differential churn suite
// (TestChurnEpochEquivalence and friends in internal/sinr), and the
// steady-state apply path of a fixed-size mobility cycle performs zero
// heap allocations (TestChurnApplyAllocFree, the churn_matrix/churn_grid
// macbench cases). Applying an epoch is stop-the-world for an evaluator
// fork family and invalidates pre-epoch forks.
//
// One level up, sim.Engine.ApplyEpoch applies a delta between slots:
// surviving node automata keep their protocol state and follow the relabel
// chain, removed automata drop out, and only added nodes are initialised
// (from labelled rng streams, so churned executions stay reproducible).
// Experiment E8-churn (internal/exp) sweeps a per-slot mobility churn rate
// under the combined MAC and reports global broadcast latency against the
// static baseline on the same topology draw.
//
// # Fault model
//
// The simulator injects failures without giving up determinism: a
// fault.Plan (crash-stop and crash-recover schedules, per-slot jammers,
// frame drop/corruption, Byzantine spam and equivocation) compiles into a
// fault.Injector wired into the engine as sim.Config.Faults. Every
// stochastic fault decision draws from labelled rng streams derived from
// the plan seed alone (fault/plan/{crash,jam,deliver,byz}), and the engine
// consults the hook only in serial sections in slot order, so a faulty
// execution is bit-identical across the serial, fused-parallel and adaptive
// drivers at any worker count (TestFaultDifferentialDrivers). A zero-rate
// plan consumes no randomness, leaving the execution bit-identical to
// running with no hook installed — and nearly free, which the
// engine_step_faults macbench case gates at ≤ 1.05× the hook-free step.
//
// The fault classes differ in what they may touch. Crashed nodes are inert:
// their Tick is skipped, their frames are withheld and their inbound
// receptions scrubbed, without perturbing survivors' streams; crash-recover
// schedules resume the same automaton with its state intact. Jammers are
// extra transmitters injected into the slot's transmit set before SINR
// evaluation, so they degrade the channel physically rather than by fiat
// (their own decodes are scrubbed and they are excluded from traffic
// stats). Drops and corruption act per (receiver, slot) on delivered
// frames; corrupted frames keep their kind but carry a poisoned message ID
// and nil payload. Byzantine nodes are wrapped automata
// (fault.Injector.WrapNodes) that may spam noise frames or mutate their
// own outgoing frames — but the engine overwrites the link-layer sender
// after Tick, so even a Byzantine node cannot forge Frame.From. A panic in
// any node's Tick or Receive is recovered, recorded
// (fault.Injector.Panics) and converted into a crash-stop of that node
// alone; the run completes and the rest of the execution is unperturbed.
//
// Degradation is measured, not assumed: core.CheckDeadlines turns recorder
// events into per-run acknowledgment/progress deadline-violation counts
// (censoring in-flight windows at the horizon), consensus.CheckFaulty
// verifies agreement and validity over the correct nodes only, and
// experiment E10-fault sweeps crash rate, jammer count and Byzantine
// fraction against those checkers — asserting in-run that the zero-fault
// control row stays clean.
//
// # Parallel experiment scheduler
//
// The experiment harness (internal/exp) runs every sweep as a grid of
// (point × trial) jobs fanned across a bounded worker pool, with a
// determinism contract: the emitted tables are bit-identical at every
// worker count. Two mechanisms make that hold:
//
//   - Label-derived seeding. Every random stream is a pure function of
//     (Config.Seed, experiment, point, trial), derived with
//     rng.Source.SplitLabeled chains (rng.Label hashes the experiment
//     name) instead of loop-carried seeds, so no stream depends on
//     scheduling order. Results are merged into canonical [point][trial]
//     order before any aggregation.
//   - Fixed-cost reuse. Each sweep point's deployment — with its strong
//     graph, Λ and the fast evaluator's n×n power matrix — is built once
//     and shared by all trials (topology.Deployment caches the derived
//     quantities; sinr.FastChannel.Fork shares the immutable matrix with
//     private scratch). Each worker keeps one engine per point and rewinds
//     it with sim.Engine.Reset instead of reallocating.
//
// TestParallelTablesBitIdentical asserts the contract differentially
// (1 worker vs 8), and BenchmarkSuiteQuick times the full experiment suite
// at both worker counts; cmd/experiments exposes the pool via -workers.
//
// Runnable entry points are provided under cmd/ and examples/; the
// top-level benchmark suite (bench_test.go) regenerates every table and
// figure via `go test -bench=.` and compares the two evaluators at
// n = 1k/5k/10k via BenchmarkSlotReceptions. cmd/macbench -json writes the
// slot-pipeline measurements — naive vs fast, sparse vs dense at |tx| = √n,
// bounds vs dense at |tx| ∈ {n/4, n} with the per-case refine rate, the
// sharded regime vs the per-pair dense scan at n = 100k (and an n = 10⁶
// smoke behind -large) with its GC-settled rss_bytes/bytes_per_node heap
// footprint, steady-state Engine.Step ns/op and allocs/op under the
// sequential, adaptive and pinned-fused drivers at n ∈ {2000, 5000} with a
// tick/evaluate/receive per-phase breakdown of the sequential step, the
// batched executor vs the Step loop (engine_run_batch), the blocked
// kernels vs their scalar predecessors (blocked_*), and the pow-free
// path-loss kernel vs math.Pow — to BENCH_macbench.json for cross-PR
// tracking. Within every run it gates that the adaptive driver never
// loses to the sequential one beyond 1.2× at n ≥ 5000, that the
// all-transmit bounds_full case stays at ≥ 0.95× the pinned dense scan,
// that RunBatch never loses to the Step loop and allocates nothing per
// micro-batch, that the blocked matrix gather beats the scalar chain by
// ≥ 1.15×, and that the sharded cases stay inside
// sinr.ShardBytesPerNodeBudget; cmd/macbench -json -compare FILE
// additionally fails on gross (beyond 2×) regressions against a committed
// baseline. All absolute numbers and speedups in the committed baseline
// were measured on the single-CPU CI runner (the report records its
// GOMAXPROCS); the gates therefore judge only within-run ratios, which
// travel across hosts. CI runs that gate on every push, renders the
// per-case table into the job summary and uploads the fresh report as an
// artifact. cmd/macbench -cpuprofile and -memprofile capture pprof
// profiles from the same binary the gate runs.
package sinrmac
