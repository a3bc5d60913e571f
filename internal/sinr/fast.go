package sinr

import (
	"math"
	"runtime"

	"sinrmac/internal/geom"
	"sinrmac/internal/workpool"
)

// DefaultMatrixThreshold is the largest deployment size for which
// FastChannel precomputes the full n×n received-power matrix (n = 2048 uses
// 32 MiB). Larger deployments use the spatial-grid far-field path instead.
const DefaultMatrixThreshold = 2048

// DefaultColumnCacheBytes is the default memory budget of the lazy
// received-power column cache used above the matrix threshold: the first
// time a node transmits, its power column (towards every receiver) is
// computed once and retained, eliminating math.Pow from that sender's hot
// path for the rest of the execution. A column costs 8n bytes, so 256 MiB
// holds 32M/n columns: the full column set up to n ≈ 5.8k, half of it at
// n ≈ 8k. Beyond the budget the earliest transmitters keep their columns
// and later ones fall back to recomputation.
const DefaultColumnCacheBytes = 256 << 20

// sparseCoverageMax is the crossover of the default (adaptive) sparse
// heuristic: a slot takes the sender-centric sparse path when the estimated
// fraction of nodes covered by the transmitters' culling balls is at most
// this value.
//
// The heuristic weighs the two slot costs. The dense scan visits all n
// receivers and sums k powers at each: Θ(n·k), in receiver order (cache
// friendly). The sparse path enumerates only the receivers within
// cullRadius of some transmitter — every other receiver provably decodes
// nothing — at a cost of Σ_s |ball(s)| grid probes plus |candidates|·k
// arithmetic, but touches the candidates in scattered order. Under a
// uniform-deployment model with per-ball coverage probability p =
// ballArea/deploymentArea, the expected candidate fraction after k balls is
// 1-(1-p)^k; the evaluator computes exactly that estimate per slot (one Exp
// from precomputed ln(1-p)) and goes sparse below the threshold. In the
// grid regime the crossover on the canonical benchmark workloads sits near
// an estimated coverage of 0.8; 0.6 keeps a safety margin for the
// estimate's uniformity assumption.
//
// The matrix regime's transmitter-major dense pass is cheaper. Timed per
// slot at GOMAXPROCS=1 on a 2-vCPU Xeon VM, with 64 random transmitter
// sets in rotation so no path finds its rows hot, on uniform deployments
// of n ∈ {500, 1000, 2000} nodes in a (4…8)·√n square: the sparse path
// beats the plain dense pass up to an estimated coverage of about 0.3–0.5
// and loses by up to 1.7× at 0.6. But a slot the sparse path declines is
// offered to the bounds tier first (prepareBounds), whose cost model
// prices the dense pass the same in both regimes, and at n = 2000 that
// adaptive choice took 1.3–2.7× the sparse path's time over the whole
// 0.25–0.6 band. Against what actually runs instead, the sparse path was
// the better choice at 0.4 in four of five deployments and at 0.6 in two
// (up to 1.8× better, up to 1.5× worse). So the threshold stays at 0.6 in
// both regimes until the bounds tier's matrix-regime cost model is
// recalibrated.
const sparseCoverageMax = 0.6

// cullSlack is the relative safety margin applied to the far-field culling
// thresholds. Culling is only an optimisation: a sender is skipped by the
// decode scan only when its received power provably cannot reach the SINR
// threshold even with zero interference, and a receiver is skipped only when
// no transmitter lies within the (slack-inflated) transmission range. The
// margin keeps both shortcuts conservative under floating-point rounding, so
// every borderline pair still goes through the exact reference arithmetic
// and the fast evaluator stays bit-identical to the naive one.
const cullSlack = 1e-9

// FastOptions tunes a FastChannel. The zero value selects the defaults.
type FastOptions struct {
	// Workers bounds the number of goroutines evaluating receivers per slot.
	// Zero or negative means GOMAXPROCS. sim.Engine overrides this with its
	// own worker count via SetWorkers.
	Workers int
	// MatrixThreshold is the largest deployment size for which the full
	// received-power matrix is cached. Zero means DefaultMatrixThreshold; a
	// negative value disables the matrix entirely (forcing the grid path,
	// which the differential tests use to exercise both paths at small n).
	MatrixThreshold int
	// ColumnCacheBytes bounds the memory of the grid path's lazy per-sender
	// power-column cache. Zero means DefaultColumnCacheBytes; a negative
	// value disables the cache (every power is recomputed each slot).
	ColumnCacheBytes int64
	// SparseFactor overrides the sparse-path crossover. Zero (the default)
	// selects the adaptive heuristic: a slot is evaluated
	// sender-centrically when the estimated ball coverage of its
	// transmitters stays below sparseCoverageMax (see that constant). A
	// positive value pins a fixed crossover instead — sparse when
	// k·SparseFactor ≤ n, with 1 forcing the sparse path on every slot —
	// and a negative value disables the sparse path entirely (every slot
	// scans all n receivers, the pre-sparse behaviour the benchmarks
	// compare against). The differential tests use the overrides to pin
	// each path; simulations keep the default.
	SparseFactor int
	// BoundsFactor overrides the hierarchical-bounds tier dispatch for the
	// slots the sparse path declined. Zero (the default) selects the
	// adaptive per-slot cost model of prepareBounds; a positive value
	// forces the bounds tier onto every such slot (the differential tests
	// pin it this way), and a negative value disables the tier (the
	// pre-bounds dense scan the benchmarks compare against). The β guard
	// (boundsBetaMin) is respected in every mode. In the sharded regime the
	// same knob steers the certified pipeline vs the sharded dense scan.
	BoundsFactor int
	// Shards selects the sharded regime (shard.go): the matrix-free
	// evaluator that holds only O(occupied cells + nodes) state and is the
	// primary representation at scale. Zero (the default) engages it
	// automatically above DefaultShardThreshold nodes with
	// defaultShardCount shards; a positive value forces that shard count at
	// any deployment size (the differential tests pin S ∈ {1, 2, 4, 8}),
	// and a negative value disables the regime, keeping the per-pair
	// matrix/grid representations regardless of n. The shard count is a
	// work-partition width, not a correctness parameter: results are
	// bit-identical at any value.
	Shards int
}

// FastChannel is the scalable SINR slot evaluator. It produces receptions
// bit-identical to Channel.SlotReceptions (the naive reference) while
// avoiding its per-slot costs:
//
//   - all result and scratch storage lives in a per-channel arena that is
//     reused across slots (no per-slot map or slice allocations), and only
//     the receivers that decoded something in the previous slot are reset,
//     so a quiet slot costs O(k) rather than O(n);
//   - for deployments up to MatrixThreshold nodes the received powers are
//     precomputed once into an n×n matrix, eliminating every math.Pow from
//     the slot path;
//   - above the threshold each receiver computes every received power
//     exactly once (the naive path computes each twice), with a
//     memory-bounded lazy cache keeping the power column of every node
//     that has ever transmitted (positions are immutable, so the column
//     never changes);
//   - a uniform spatial grid (internal/geom) buckets the deployment in both
//     regimes. On dense slots above the matrix threshold it culls receivers
//     with no transmitter inside the transmission range before any
//     interference is summed; on sparse slots (estimated transmitter-ball
//     coverage below sparseCoverageMax, either regime) it drives the
//     sender-centric path, which enumerates only the receivers inside some
//     transmitter's ball — O(Σ_s |ball(s)|) grid work plus |candidates|·k
//     arithmetic — instead of scanning all n receivers;
//   - dense slots whose transmitter count dwarfs the number of occupied
//     grid cells take the hierarchical-bounds tier (bounds.go): per-cell
//     transmitter aggregates bound each receiver's interference from above
//     and below in O(occupied cells), the decode decision is emitted
//     directly when the certificates agree under a k·ulp rounding slack,
//     and only the thin ambiguous band around β refines through the exact
//     per-receiver arithmetic;
//   - above DefaultShardThreshold nodes (or when FastOptions.Shards forces
//     it) the evaluator runs the sharded regime (shard.go): the bounds
//     representation, extended with a supercell layer, becomes the primary
//     one — no matrix, grid or column cache exists at all, memory is
//     O(occupied cells + nodes), and receivers are scanned in spatial
//     shards whose knowledge of remote transmitters is certified aggregate
//     bounds;
//   - receivers are scanned by a persistent pool of worker goroutines
//     (internal/workpool) woken by a channel handoff instead of spawned per
//     slot; the partition is deterministic, so results are identical at any
//     worker count.
//
// The regime decision is made once, at construction: sharded at scale (or
// when forced), the per-pair representations otherwise, with the matrix
// kept up to MatrixThreshold nodes and the grid plus bounded column cache
// above it. Within the chosen regime each slot then dispatches — sparse
// when the estimated candidate coverage is low, certified bounds when the
// per-slot cost model wins, the exact dense scan otherwise — and no tier
// changes results: a sender whose lone-transmitter SINR is below β cannot
// be decoded under any interference (the denominator only grows), the
// sparse path skips exactly the receivers whose every received power is
// provably below that bound, the bounds and sharded tiers emit only
// decisions their conservative certificates prove identical to the exact
// arithmetic's (bounds.go and shard.go document the argument), and every
// threshold carries slack so borderline cases fall through to the exact
// reference arithmetic.
//
// The Reception slice returned by SlotReceptions is owned by the evaluator
// and valid only until the next call; callers that retain it must copy.
// SlotReceptions must not be called concurrently with itself.
type FastChannel struct {
	ch      *Channel
	pos     []geom.Point
	n       int
	workers int

	// SoA mirror of pos plus the hoisted path-loss constants: the pair
	// loops read coordinates from two flat float64 slices (twice the
	// density of a []Point per cache line, and indexable without the
	// struct field loads) and dispatch the path-loss exponent once per
	// evaluator instead of once per pair. pairPower is the fused kernel
	// over this layout; it is bit-identical to
	// params.ReceivedPower(Point.Dist) by construction (same subtraction,
	// square, Sqrt, clamp and α-multiplication sequence), which
	// TestPairPowerKernelBitIdentical pins. Churn epochs patch px/py in
	// step with pos.
	px, py []float64
	power  float64
	alpha  float64
	alphaK int // 2, 3, 4 select the multiplication fast paths; 0 → math.Pow
	// workersReq is the last requested (unclamped) worker count; ApplyEpoch
	// re-resolves the clamp when the node count changes.
	workersReq int

	beta, noise float64
	// cullPower is the received power below which a sender provably cannot
	// be decoded; cullRadius is the distance beyond which received power is
	// provably below cullPower. Both carry cullSlack.
	cullPower  float64
	cullRadius float64

	// mat is the received-power matrix (mat[r*stride+s]), nil in grid mode.
	// stride equals n at construction and grows (with headroom) when churn
	// epochs push the node count past it, so moderate add/remove churn
	// patches the matrix in place instead of reshaping it.
	mat    []float64
	stride int
	grid   *geom.Grid // all-node spatial index (both modes)

	sparseFactor int
	// box is the (monotonically expanded) bounding box of the deployment and
	// logBallMiss is ln(1 - ballArea/deploymentArea) derived from it,
	// precomputed for the adaptive per-slot coverage estimate
	// 1-exp(k·logBallMiss). Churn epochs expand the box by the changed
	// positions (it never shrinks below a past extent — the estimate only
	// steers dispatch, never correctness) and refresh logBallMiss.
	box         geom.Rect
	logBallMiss float64

	// Lazy column cache (grid mode): cols[s] is the received power of
	// sender s at every node, filled the first time s transmits, with at
	// most colBudgetInit columns resident. When the cache is full a
	// second-chance (clock) sweep over the resident ring evicts a column
	// that is neither referenced since its last sweep nor pinned by the
	// current slot (colStamp == colGen), reusing its storage; a slot whose
	// working set exceeds the capacity therefore keeps its first columns
	// cached instead of thrashing. Columns are only written between
	// parallel scans. The cache is private to each evaluator: forks sharing
	// a deployment each fill their own columns, so concurrent trials never
	// contend. colHits/colMisses/colEvictions are read via ColumnStats.
	cols          [][]float64
	colIDs        []int32  // resident ring: node ids that currently hold a column
	colRef        []bool   // per node: referenced since the clock hand last passed
	colStamp      []uint32 // per node: colGen of the last slot that used the column
	colGen        uint32
	colHand       int
	colBudgetInit int
	colBytes      int64 // configured byte budget, kept to re-derive colBudgetInit under churn
	colHits       uint64
	colMisses     uint64
	colEvictions  uint64

	pool *workpool.Pool
	// chunkFn is the loop body of the current parallel scan; RunChunk
	// dispatches to it. Method expressions rather than closures keep the
	// slot path allocation-free.
	chunkFn func(f *FastChannel, lo, hi, worker int)

	out    []Reception
	isTx   []bool
	txPred func(id int) bool // reusable predicate over isTx for grid queries
	rows   [][]float64       // per-worker received-power scratch (grid mode)
	tx     []int             // transmitter set of the slot being evaluated

	// Matrix-regime accumulators of the transmitter-major pass (see
	// denseTotals): per scanned receiver its total received power, its
	// strongest received power and that power's first sender. Indexed by
	// position in the slot's scan, grown to n by growAccumulators and
	// private to each evaluator.
	accTot  []float64
	accBest []float64
	accFrom []int32

	// decoded[w] lists the receivers worker w decoded a frame for in the
	// previous slot; resetting exactly those entries restores the all -1
	// invariant of out without an O(n) sweep.
	decoded [][]int

	// Sparse-path scratch: the deduplicated candidate receivers of the
	// current slot, the per-transmitter ball buffer, and the visit stamps
	// that dedup the ball union without clearing between slots.
	candidates []int
	ball       []int
	mark       []uint32
	markGen    uint32

	// Bounds tier (see bounds.go). bholder shares the lazily built
	// immutable cell index and offset power tables across all forks of a
	// deployment; bidx/boundsOff cache the resolved result locally, and
	// everything below them is per-evaluator slot scratch.
	boundsFactor int
	bholder      *boundsHolder
	boundsOff    bool // latched when the offset tables would exceed boundsMaxOffsets
	bidx         *boundsIndex
	txCellCnt    []int32 // per cell: transmitter count of the current slot
	txCellStart  []int32 // per cell: CSR offset into txByCell
	txCellFill   []int32 // per cell: scatter cursor while building the CSR
	txByCell     []int32 // slot transmitters grouped by cell
	occT         []int32 // occupied transmitter cells, in tx-encounter order
	loFar        []float64
	hiFar        []float64
	farMaxUB     []float64
	nearCnt      []int32
	nearCells    []int32 // per receiver cell, stride bidx.nearStride
	// Per-slot certificate constants (prepareBounds) and lifetime counters
	// (read via BoundsStats, written with atomics from the chunk workers).
	slackUp, slackDown float64
	betaHi, betaLo     float64
	boundsSlots        uint64
	boundsReceivers    uint64
	boundsRefined      uint64

	// Sharded regime (shard.go): shards > 0 replaces the matrix / grid /
	// column-cache representations with the cell decomposition plus the
	// supercell layer of sext. The scratch below extends the bounds tier's
	// per-cell aggregates with the per-supercell level; superFarLo/Hi/Max
	// hold the far-field interference bounds of each receiver supercell for
	// the slot being evaluated.
	shards        int
	sext          *shardExt
	occS          []int32 // occupied transmitter supercells, in occT-encounter order
	superTxCnt    []int32 // per supercell: transmitter count of the current slot
	superOccCnt   []int32 // per supercell: occupied-cell count of the current slot
	superOccStart []int32 // per supercell: CSR offset into occTBySuper
	superOccFill  []int32 // per supercell: scatter cursor while building the CSR
	occTBySuper   []int32 // occupied transmitter cells grouped by supercell
	superFarLo    []float64
	superFarHi    []float64
	superFarMax   []float64
}

var _ ParallelEvaluator = (*FastChannel)(nil)

// NewFastChannel returns a fast evaluator over the given channel. At most
// one FastOptions value may be supplied; omitting it selects the defaults.
func NewFastChannel(c *Channel, opts ...FastOptions) *FastChannel {
	var opt FastOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	threshold := opt.MatrixThreshold
	if threshold == 0 {
		threshold = DefaultMatrixThreshold
	}
	n := c.NumNodes()
	f := &FastChannel{
		ch:        c,
		pos:       c.pos,
		n:         n,
		beta:      c.params.Beta,
		noise:     c.params.Noise,
		power:     c.params.Power,
		alpha:     c.params.Alpha,
		alphaK:    alphaCase(c.params.Alpha),
		cullPower: c.params.Beta * c.params.Noise * (1 - cullSlack),
		out:       make([]Reception, n),
		isTx:      make([]bool, n),
		mark:      make([]uint32, n),
		pool:      workpool.New(),
	}
	f.syncSoAPositions(nil)
	f.setWorkers(opt.Workers)
	f.txPred = func(id int) bool { return f.isTx[id] }
	f.sparseFactor = opt.SparseFactor
	f.boundsFactor = opt.BoundsFactor
	f.bholder = &boundsHolder{}
	for i := range f.out {
		f.out[i].Sender = -1
	}
	// Any sender within the near-field clamp distance (1) radiates maximum
	// power, so the candidate radius never drops below it.
	f.cullRadius = math.Max(c.params.Range(), 1) * (1 + cullSlack)
	f.box = geom.BoundingBox(f.pos)
	f.updateCoverageModel()
	budget := opt.ColumnCacheBytes
	if budget == 0 {
		budget = DefaultColumnCacheBytes
	}
	f.colBytes = budget
	if s := resolveShards(opt.Shards, n); s > 0 {
		f.shards = s
		if f.ensureShardIndex() {
			// Sharded regime: the cell decomposition plus the supercell
			// layer is the only spatial state — no grid, matrix or column
			// cache is built.
			return f
		}
		// Outlier geometry latched the offset tables off: fall back to the
		// per-pair regimes below.
		f.shards = 0
	}
	// The grid is built in both per-pair regimes: the matrix path uses it
	// only for the sparse sender-centric enumeration, the grid path also
	// for dense-slot receiver culling.
	f.grid = geom.NewGrid(f.cullRadius)
	for i, p := range f.pos {
		f.grid.Insert(i, p)
	}
	if n <= threshold {
		f.mat = buildPowerMatrix(c)
		f.stride = n
	} else {
		f.cols = make([][]float64, n)
		f.colRef = make([]bool, n)
		f.colStamp = make([]uint32, n)
		if budget > 0 {
			f.colBudgetInit = int(budget / int64(8*n))
		}
	}
	return f
}

// alphaCase maps a path-loss exponent to the multiplication fast path
// pairPower and Params.ReceivedPower share: 2, 3 or 4 for the integer
// exponents, 0 for the generic math.Pow fallback.
func alphaCase(alpha float64) int {
	switch alpha {
	case 2:
		return 2
	case 3:
		return 3
	case 4:
		return 4
	}
	return 0
}

// pairPower is the fused path-loss kernel over the SoA layout: the received
// power at (bx, by) from a transmitter at (ax, ay). It evaluates exactly
// the reference composition params.ReceivedPower(Point.Dist) — the same
// coordinate subtractions, the same dx²+dy² and Sqrt, the same near-field
// clamp, and the same α-specific multiplication sequence (ReceivedPower
// documents why the multiplications are bit-identical to math.Pow) — with
// the Params value copy, the method dispatch and the per-pair exponent
// switch hoisted into evaluator fields, so the result is bit-identical to
// the naive evaluator's on every input while the pair loops stay free of
// calls and table loads.
//
//sinrlint:allow powfree generic-α fallback in the final return; shipped exponents take the multiplication cases
//sinrlint:hotpath
func (f *FastChannel) pairPower(ax, ay, bx, by float64) float64 {
	dx := ax - bx
	dy := ay - by
	d := math.Sqrt(dx*dx + dy*dy)
	if d < 1 {
		d = 1
	}
	switch f.alphaK {
	case 3:
		return f.power / (d * d * d)
	case 2:
		return f.power / (d * d)
	case 4:
		dd := d * d
		return f.power / (dd * dd)
	}
	return f.power / math.Pow(d, f.alpha)
}

// dist4 is pairPower's clamped-distance prologue for four receivers at
// once: per lane exactly the scalar operation sequence (subtractions,
// dx²+dy², Sqrt, near-field clamp), so each lane's distance is bit-identical
// to the scalar kernel's while the four Sqrt chains overlap.
//
//sinrlint:hotpath
func dist4(sx, sy float64, px, py []float64, i int) (d0, d1, d2, d3 float64) {
	dx0, dy0 := sx-px[i], sy-py[i]
	dx1, dy1 := sx-px[i+1], sy-py[i+1]
	dx2, dy2 := sx-px[i+2], sy-py[i+2]
	dx3, dy3 := sx-px[i+3], sy-py[i+3]
	d0 = math.Sqrt(dx0*dx0 + dy0*dy0)
	d1 = math.Sqrt(dx1*dx1 + dy1*dy1)
	d2 = math.Sqrt(dx2*dx2 + dy2*dy2)
	d3 = math.Sqrt(dx3*dx3 + dy3*dy3)
	if d0 < 1 {
		d0 = 1
	}
	if d1 < 1 {
		d1 = 1
	}
	if d2 < 1 {
		d2 = 1
	}
	if d3 < 1 {
		d3 = 1
	}
	return
}

// fillColumn computes the sender at (sx, sy)'s received power at every node
// into col, processing receivers in 4-wide blocks over the SoA px/py
// mirror with the α-specific multiplication sequence hoisted out of the
// loop. Every lane performs exactly pairPower's operation sequence, so each
// entry is bit-identical to the scalar call (the kernel differential tests
// pin this, remainder lanes included); the blocked form overlaps the
// independent Sqrt/divide chains and hoists the slice bounds checks.
//
//sinrlint:allow powfree generic-α fallback in the default case; shipped exponents take the blocked multiplication cases
//sinrlint:hotpath
func (f *FastChannel) fillColumn(col []float64, sx, sy float64) {
	n := len(col)
	px := f.px[:n]
	py := f.py[:n]
	i := 0
	switch f.alphaK {
	case 3:
		for ; i+4 <= n; i += 4 {
			d0, d1, d2, d3 := dist4(sx, sy, px, py, i)
			col[i] = f.power / (d0 * d0 * d0)
			col[i+1] = f.power / (d1 * d1 * d1)
			col[i+2] = f.power / (d2 * d2 * d2)
			col[i+3] = f.power / (d3 * d3 * d3)
		}
	case 2:
		for ; i+4 <= n; i += 4 {
			d0, d1, d2, d3 := dist4(sx, sy, px, py, i)
			col[i] = f.power / (d0 * d0)
			col[i+1] = f.power / (d1 * d1)
			col[i+2] = f.power / (d2 * d2)
			col[i+3] = f.power / (d3 * d3)
		}
	case 4:
		for ; i+4 <= n; i += 4 {
			d0, d1, d2, d3 := dist4(sx, sy, px, py, i)
			dd0, dd1, dd2, dd3 := d0*d0, d1*d1, d2*d2, d3*d3
			col[i] = f.power / (dd0 * dd0)
			col[i+1] = f.power / (dd1 * dd1)
			col[i+2] = f.power / (dd2 * dd2)
			col[i+3] = f.power / (dd3 * dd3)
		}
	default:
		for ; i+4 <= n; i += 4 {
			d0, d1, d2, d3 := dist4(sx, sy, px, py, i)
			col[i] = f.power / math.Pow(d0, f.alpha)
			col[i+1] = f.power / math.Pow(d1, f.alpha)
			col[i+2] = f.power / math.Pow(d2, f.alpha)
			col[i+3] = f.power / math.Pow(d3, f.alpha)
		}
	}
	for ; i < n; i++ {
		col[i] = f.pairPower(sx, sy, px[i], py[i])
	}
}

// syncSoAPositions brings px/py in step with pos. With a nil dirty list the
// whole mirror is rebuilt (construction, growth past capacity, churn
// rebuilds); with a dirty list only the listed slots are rewritten, which
// keeps the per-epoch cost proportional to the churn. Steady-state epochs
// allocate nothing: capacity is retained across shrinks and regrows.
func (f *FastChannel) syncSoAPositions(dirty []int) {
	n := len(f.pos)
	if dirty == nil || n > cap(f.px) {
		if n > cap(f.px) {
			f.px = make([]float64, n)
			f.py = make([]float64, n)
		} else {
			f.px = f.px[:n]
			f.py = f.py[:n]
		}
		for i, p := range f.pos {
			f.px[i] = p.X
			f.py[i] = p.Y
		}
		return
	}
	f.px = f.px[:n]
	f.py = f.py[:n]
	for _, id := range dirty {
		p := f.pos[id]
		f.px[id] = p.X
		f.py[id] = p.Y
	}
}

// updateCoverageModel derives logBallMiss — the per-ball miss probability of
// the adaptive sparse crossover — from the current bounding box. Clamping
// each box dimension to the ball diameter keeps the density estimate
// meaningful for degenerate (line-like or tiny) deployments: the reachable
// region around a line of length L is a strip of area ≈ L·2r, not the
// zero-area box.
func (f *FastChannel) updateCoverageModel() {
	area := math.Max(f.box.Width(), 2*f.cullRadius) * math.Max(f.box.Height(), 2*f.cullRadius)
	miss := 1 - math.Pi*f.cullRadius*f.cullRadius/area
	if miss <= 0 {
		// A single ball covers the whole deployment: the estimate is total
		// coverage for any k ≥ 1, so the adaptive heuristic always scans
		// densely.
		f.logBallMiss = math.Inf(-1)
	} else {
		f.logBallMiss = math.Log(miss)
	}
}

// Fork returns an evaluator that shares f's immutable state — the underlying
// channel, node positions, precomputed n×n power matrix, spatial grid and
// (once built) the bounds tier's cell index and offset power tables — while
// owning private mutable scratch (reception slice, transmitter flags,
// per-worker rows, sparse candidate buffers, bounds-tier aggregates and
// counters, worker pool) and, on the grid path, a private lazy column cache
// with a fresh budget. Forks may evaluate
// slots concurrently with each other and with f. The experiment scheduler
// hands each trial worker its own fork, so the power matrix of a sweep
// point's deployment is built once and shared across every parallel trial
// instead of being rebuilt per trial.
func (f *FastChannel) Fork() *FastChannel {
	g := &FastChannel{
		ch:            f.ch,
		pos:           f.pos,
		n:             f.n,
		px:            f.px,
		py:            f.py,
		power:         f.power,
		alpha:         f.alpha,
		alphaK:        f.alphaK,
		workers:       f.workers,
		workersReq:    f.workersReq,
		beta:          f.beta,
		noise:         f.noise,
		cullPower:     f.cullPower,
		cullRadius:    f.cullRadius,
		mat:           f.mat,
		stride:        f.stride,
		grid:          f.grid,
		sparseFactor:  f.sparseFactor,
		boundsFactor:  f.boundsFactor,
		bholder:       f.bholder,
		box:           f.box,
		logBallMiss:   f.logBallMiss,
		colBytes:      f.colBytes,
		colBudgetInit: f.colBudgetInit,
		out:           make([]Reception, f.n),
		isTx:          make([]bool, f.n),
		mark:          make([]uint32, f.n),
		pool:          workpool.New(),
	}
	g.txPred = func(id int) bool { return g.isTx[id] }
	for i := range g.out {
		g.out[i].Sender = -1
	}
	switch {
	case f.shards > 0:
		// Sharded regime: share the resolved index and shard extension
		// (immutable between epochs) and grow private per-slot scratch.
		g.shards = f.shards
		g.bidx, g.boundsOff = f.bidx, f.boundsOff
		g.sext = f.sext
		g.growShardScratch()
	case f.mat == nil:
		g.cols = make([][]float64, g.n)
		g.colRef = make([]bool, g.n)
		g.colStamp = make([]uint32, g.n)
	}
	// g shares f's boundsHolder: whichever fork first takes a dense slot
	// builds the cell index and offset tables once for all of them, and
	// each fork then grows private per-slot aggregates and counters (a
	// fork's BoundsStats start at zero).
	return g
}

// Close releases the evaluator's worker-pool goroutines. It is optional —
// an unreachable evaluator's pool is reclaimed by the runtime — but tests
// and drivers that construct many evaluators call it to bound the live
// goroutine count deterministically.
func (f *FastChannel) Close() { f.pool.Close() }

// ensureColumns fills the power columns of any transmitter that does not
// have one yet. It runs before the parallel receiver scan, so the scan sees
// the cache as read-only. The cache is bounded: below capacity
// (colBudgetInit columns) a fresh column is allocated; at capacity a
// second-chance (clock) sweep evicts a resident column and reuses its
// storage, so a long-running sweep's footprint stays at the configured byte
// budget no matter how many distinct nodes ever transmit. Columns used by
// the current slot are pinned (colStamp), so a slot whose transmitter set
// exceeds the capacity keeps its first columns and serves the overflow by
// recomputation instead of evicting what it just filled.
func (f *FastChannel) ensureColumns(tx []int) {
	if f.colBudgetInit <= 0 {
		return
	}
	f.colGen++
	if f.colGen == 0 { // stamp wraparound: reset once every 2^32 slots
		for i := range f.colStamp {
			f.colStamp[i] = 0
		}
		f.colGen = 1
	}
	gen := f.colGen
	for _, s := range tx {
		if f.cols[s] != nil {
			f.colRef[s] = true
			f.colStamp[s] = gen
			f.colHits++
			continue
		}
		f.colMisses++
		var col []float64
		if len(f.colIDs) < f.colBudgetInit {
			col = make([]float64, f.n)
			f.colIDs = append(f.colIDs, int32(s))
		} else {
			// Clock sweep: skip columns the current slot pinned, give
			// referenced columns a second chance, evict the first column
			// with neither. Bounded by two passes over the ring; if every
			// resident column is pinned by this slot the sender goes
			// uncached (the chunk evaluators recompute its powers).
			scanned := 0
			limit := 2 * len(f.colIDs)
			for scanned < limit {
				v := f.colIDs[f.colHand]
				if f.colStamp[v] == gen {
					f.colHand++
					if f.colHand == len(f.colIDs) {
						f.colHand = 0
					}
					scanned++
					continue
				}
				if f.colRef[v] {
					f.colRef[v] = false
					f.colHand++
					if f.colHand == len(f.colIDs) {
						f.colHand = 0
					}
					scanned++
					continue
				}
				col = f.cols[v]
				f.cols[v] = nil
				f.colIDs[f.colHand] = int32(s)
				f.colHand++
				if f.colHand == len(f.colIDs) {
					f.colHand = 0
				}
				f.colEvictions++
				break
			}
			if col == nil {
				continue
			}
		}
		f.colRef[s] = true
		f.colStamp[s] = gen
		f.fillColumn(col, f.px[s], f.py[s])
		f.cols[s] = col
	}
}

// ColumnStats reports the lifetime behaviour of the evaluator's lazy
// power-column cache: transmitter lookups that found a resident column,
// lookups that had to fill one, evictions performed by the clock sweep, and
// the current resident count. All zeros in the matrix and sharded regimes
// (which keep no column cache) and when the cache is disabled.
type ColumnStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Resident  int
}

// ColumnStats returns the evaluator's column-cache counters. Like
// BoundsStats the counters are per evaluator: forks start at zero.
func (f *FastChannel) ColumnStats() ColumnStats {
	return ColumnStats{
		Hits:      f.colHits,
		Misses:    f.colMisses,
		Evictions: f.colEvictions,
		Resident:  len(f.colIDs),
	}
}

// buildPowerMatrix precomputes ReceivedPower(Dist(s, r)) for every node
// pair, exploiting symmetry to halve the math.Pow calls.
func buildPowerMatrix(c *Channel) []float64 {
	n := c.NumNodes()
	mat := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for s := r; s < n; s++ {
			pw := c.params.ReceivedPower(c.Dist(s, r))
			mat[r*n+s] = pw
			mat[s*n+r] = pw
		}
	}
	return mat
}

// Params implements ChannelEvaluator.
func (f *FastChannel) Params() Params { return f.ch.Params() }

// NumNodes implements ChannelEvaluator.
func (f *FastChannel) NumNodes() int { return f.n }

// Channel returns the underlying naive channel.
func (f *FastChannel) Channel() *Channel { return f.ch }

// WorkerPool returns the evaluator's persistent worker pool. sim.Engine
// runs its own parallel phases (tick, receive) on the same pool, so one
// set of parked goroutines serves the whole slot pipeline.
func (f *FastChannel) WorkerPool() *workpool.Pool { return f.pool }

// SetWorkers implements ParallelEvaluator.
func (f *FastChannel) SetWorkers(workers int) { f.setWorkers(workers) }

// setWorkers resolves and caches the effective worker count once, instead
// of consulting runtime.GOMAXPROCS on every slot. The unclamped request is
// retained so churn epochs that change n can re-resolve the clamp.
func (f *FastChannel) setWorkers(workers int) {
	f.workersReq = workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > f.n {
		workers = f.n
	}
	if workers < 1 {
		workers = 1
	}
	f.workers = workers
}

// RunChunk implements workpool.Task by dispatching to the loop body of the
// current scan; the evaluator itself is the task value, so submitting a
// scan to the pool allocates nothing.
func (f *FastChannel) RunChunk(lo, hi, worker int) { f.chunkFn(f, lo, hi, worker) }

// runChunks evaluates fn over [0, n) on the worker pool, growing the
// per-worker scratch first.
// workerRow returns worker's per-slot received-power scratch row sized for
// the current transmitter set, growing it when a larger slot arrives. The
// growth is amortized ownership, not steady-state allocation: capacity only
// ratchets up to the largest |tx| seen by this worker, so the alloc-free
// slot gates (TestEngineStepAllocFree, macbench allocs/op) never re-enter
// the make. Keeping the single make here leaves the chunk kernels
// statically allocation-free for the hotalloc analyzer.
func (f *FastChannel) workerRow(worker int) []float64 {
	row := f.rows[worker]
	if cap(row) < len(f.tx) {
		row = make([]float64, len(f.tx))
		f.rows[worker] = row
	}
	return row[:len(f.tx)]
}

// growAccumulators sizes the matrix-regime accumulators for the current
// node count, which bounds both a dense scan and a sparse candidate list.
// Like workerRow it only ratchets capacity up, so steady-state slots never
// allocate, and it keeps the make out of the hotpath kernels.
func (f *FastChannel) growAccumulators() {
	if len(f.accTot) < f.n {
		f.accTot = make([]float64, f.n)
		f.accBest = make([]float64, f.n)
		f.accFrom = make([]int32, f.n)
	}
}

func (f *FastChannel) runChunks(n int, fn func(f *FastChannel, lo, hi, worker int)) {
	workers := f.workers
	if len(f.rows) < workers {
		f.rows = append(f.rows, make([][]float64, workers-len(f.rows))...)
	}
	for len(f.decoded) < workers {
		f.decoded = append(f.decoded, nil)
	}
	f.chunkFn = fn
	f.pool.Run(n, workers, f)
	f.chunkFn = nil
}

// SlotReceptions implements ChannelEvaluator. The returned slice is reused
// by the next call.
func (f *FastChannel) SlotReceptions(transmitters []int) []Reception {
	out := f.out
	// Between calls out is all -1 except the entries the previous slot
	// decoded; resetting those restores the invariant without touching the
	// other n-k receivers.
	for w, dec := range f.decoded {
		for _, r := range dec {
			out[r].Sender = -1
		}
		f.decoded[w] = dec[:0]
	}
	if len(transmitters) == 0 {
		return out
	}
	distinct := 0
	for _, t := range transmitters {
		if !f.isTx[t] {
			f.isTx[t] = true
			distinct++
		}
	}
	if distinct == f.n {
		// Every node transmits: half-duplex leaves no listener, so the
		// all--1 state out is already in is the exact result. (Counting
		// distinct ids, not len(transmitters), keeps this sound when the
		// caller passes duplicates.) Skipping the dispatch entirely keeps
		// all-transmit probes at O(k) on every tier.
		for _, t := range transmitters {
			f.isTx[t] = false
		}
		return out
	}
	f.tx = transmitters
	if f.mat != nil {
		f.growAccumulators()
	}
	switch {
	case f.useSparse(len(transmitters)):
		f.buildCandidates(transmitters)
		switch {
		case f.shards > 0:
			f.runChunks(len(f.candidates), (*FastChannel).sparseShardChunk)
		case f.mat == nil:
			f.ensureColumns(transmitters)
			f.runChunks(len(f.candidates), (*FastChannel).sparseGridChunk)
		default:
			f.runChunks(len(f.candidates), (*FastChannel).sparseMatrixChunk)
		}
	case f.shards > 0:
		f.shardSlot(transmitters)
	case f.prepareBounds(len(transmitters)):
		f.runChunks(f.bidx.cells.NumCells(), (*FastChannel).boundsPrepChunk)
		if f.mat == nil {
			f.ensureColumns(transmitters)
			f.runChunks(f.n, (*FastChannel).boundsGridChunk)
		} else {
			f.runChunks(f.n, (*FastChannel).boundsMatrixChunk)
		}
		f.finishBounds()
	case f.mat != nil:
		f.runChunks(f.n, (*FastChannel).matrixChunk)
	default:
		f.ensureColumns(transmitters)
		f.runChunks(f.n, (*FastChannel).gridChunk)
	}
	f.tx = nil
	for _, t := range transmitters {
		f.isTx[t] = false
	}
	return out
}

// useSparse decides the path of a slot with k ≥ 1 transmitters: the
// explicit SparseFactor override when one was configured, otherwise the
// adaptive coverage estimate (see sparseCoverageMax).
func (f *FastChannel) useSparse(k int) bool {
	switch {
	case f.sparseFactor < 0:
		return false
	case f.sparseFactor > 0:
		return k*f.sparseFactor <= f.n
	default:
		return 1-math.Exp(float64(k)*f.logBallMiss) <= sparseCoverageMax
	}
}

// buildCandidates fills f.candidates with the deduplicated union of the
// transmitters' culling balls: exactly the receivers for which some
// transmitter lies within cullRadius, i.e. the receivers the dense grid
// path would not cull. Every other node's received powers are all provably
// below cullPower, so its reception is -1 without evaluation. The visit
// stamps dedup overlapping balls without clearing state between slots.
func (f *FastChannel) buildCandidates(tx []int) {
	f.markGen++
	if f.markGen == 0 { // stamp wraparound: reset once every 2^32 slots
		for i := range f.mark {
			f.mark[i] = 0
		}
		f.markGen = 1
	}
	gen := f.markGen
	f.candidates = f.candidates[:0]
	if f.shards > 0 {
		f.appendCandidatesCells(tx, gen)
		return
	}
	for _, s := range tx {
		f.ball = f.grid.AppendWithin(f.ball[:0], f.pos[s], f.cullRadius)
		ball := f.ball
		i := 0
		// 4-wide unroll of the mark scan. The stamp checks stay sequential,
		// so the candidate order (and duplicate handling within a ball) is
		// identical to the scalar loop; only the loop-control overhead drops.
		for ; i+4 <= len(ball); i += 4 {
			id0, id1, id2, id3 := ball[i], ball[i+1], ball[i+2], ball[i+3]
			if f.mark[id0] != gen {
				f.mark[id0] = gen
				f.candidates = append(f.candidates, id0)
			}
			if f.mark[id1] != gen {
				f.mark[id1] = gen
				f.candidates = append(f.candidates, id1)
			}
			if f.mark[id2] != gen {
				f.mark[id2] = gen
				f.candidates = append(f.candidates, id2)
			}
			if f.mark[id3] != gen {
				f.mark[id3] = gen
				f.candidates = append(f.candidates, id3)
			}
		}
		for ; i < len(ball); i++ {
			id := ball[i]
			if f.mark[id] != gen {
				f.mark[id] = gen
				f.candidates = append(f.candidates, id)
			}
		}
	}
}

// The matrix-regime chunk evaluators below run one transmitter-major pass.
// The power matrix is bit-symmetric (buildPowerMatrix and both churn paths
// write each pair's value to its two mirror entries; TestPowerMatrixSymmetric
// pins it), so row s of the matrix holds transmitter s's power at every
// receiver. For each
// transmitter, four at a time in tx order, the pass streams row s over the
// chunk's receivers into per-receiver accumulators: the running total,
// added as (((acc+p0)+p1)+p2)+p3 — each receiver's terms in exactly the tx
// order of the scalar loop, so every total is bit-identical to it — and the
// first strongest transmitter so far (strict >). That replaces one cache
// line per (receiver, transmitter) pair with one contiguous segment per
// transmitter. The strongest-sender fold runs only when the group's
// rounded sum (p0+p1)+(p2+p3) beats the running maximum: with non-negative
// terms and monotone rounding that sum is ≥ each pi, so a group the test
// skips holds no new maximum.
//
// The decode then tests only that strongest sender s*, with the reference's
// unchanged expression signal ≥ cullPower && signal/(total−signal+N) ≥ β.
// This is exact, not a heuristic. All terms are non-negative and every
// operation is correctly rounded, hence monotone. If any other transmitter
// entry (duplicate ids included) has signal' ≥ signal, the tx-order sum
// passes through a partial sum ≥ signal+signal' ≥ 2·signal, so
// fl(total) ≥ 2·signal, fl(total−signal) ≥ signal, the denominator is
// ≥ signal and the rounded ratio is ≤ 1 < β (Params.Validate requires
// β > 1). So only a strict maximum can pass, and the reference's "first
// sender in tx order that passes" is either that maximum or nobody: testing
// s* alone emits the same decision bit for bit. (A signal of 0 never passes
// either, so the accumulators start at zero with no sender.)
//
// The accumulators are FastChannel scratch (accTot, accBest, accFrom),
// indexed by the chunk's own positions — receiver ids on dense slots,
// candidate indices on sparse ones — so the workers' disjoint [lo, hi)
// ranges never share a word.

// denseTotals runs the transmitter-major pass over the contiguous receivers
// [lo, hi): on return tot[i], best[i] and from[i] hold receiver lo+i's total
// received power, the strongest received power and its first sender in tx
// order.
//
//sinrlint:hotpath
func (f *FastChannel) denseTotals(lo, hi int, tot, best []float64, from []int32) {
	tot = tot[:hi-lo]
	best = best[:len(tot)]
	from = from[:len(tot)]
	clear(tot)
	clear(best)
	m, stride, tx := f.mat, f.stride, f.tx
	j := 0
	for ; j+4 <= len(tx); j += 4 {
		s0, s1, s2, s3 := tx[j], tx[j+1], tx[j+2], tx[j+3]
		r0 := m[s0*stride+lo : s0*stride+hi]
		r1 := m[s1*stride+lo : s1*stride+hi]
		r2 := m[s2*stride+lo : s2*stride+hi]
		r3 := m[s3*stride+lo : s3*stride+hi]
		r0, r1, r2, r3 = r0[:len(tot)], r1[:len(tot)], r2[:len(tot)], r3[:len(tot)]
		for i := range tot {
			p0, p1, p2, p3 := r0[i], r1[i], r2[i], r3[i]
			tot[i] = (((tot[i] + p0) + p1) + p2) + p3
			if (p0+p1)+(p2+p3) > best[i] {
				best[i], from[i] = strongest4(best[i], from[i], p0, p1, p2, p3, s0, s1, s2, s3)
			}
		}
	}
	for ; j < len(tx); j++ {
		s := tx[j]
		row := m[s*stride+lo : s*stride+hi]
		row = row[:len(tot)]
		for i := range tot {
			p := row[i]
			tot[i] += p
			if p > best[i] {
				best[i], from[i] = p, int32(s)
			}
		}
	}
}

// sparseTotals is denseTotals over an explicit receiver list: on return
// tot[i], best[i] and from[i] describe receiver rs[i]. Each transmitter's
// row is read at the listed receivers only, so the pass touches one hot row
// per transmitter.
//
//sinrlint:hotpath
func (f *FastChannel) sparseTotals(rs []int, tot, best []float64, from []int32) {
	tot = tot[:len(rs)]
	best = best[:len(rs)]
	from = from[:len(rs)]
	clear(tot)
	clear(best)
	m, stride, n, tx := f.mat, f.stride, f.n, f.tx
	j := 0
	for ; j+4 <= len(tx); j += 4 {
		s0, s1, s2, s3 := tx[j], tx[j+1], tx[j+2], tx[j+3]
		r0 := m[s0*stride : s0*stride+n]
		r1 := m[s1*stride : s1*stride+n]
		r2 := m[s2*stride : s2*stride+n]
		r3 := m[s3*stride : s3*stride+n]
		for i, r := range rs {
			p0, p1, p2, p3 := r0[r], r1[r], r2[r], r3[r]
			tot[i] = (((tot[i] + p0) + p1) + p2) + p3
			if (p0+p1)+(p2+p3) > best[i] {
				best[i], from[i] = strongest4(best[i], from[i], p0, p1, p2, p3, s0, s1, s2, s3)
			}
		}
	}
	for ; j < len(tx); j++ {
		s := tx[j]
		row := m[s*stride : s*stride+n]
		for i, r := range rs {
			p := row[r]
			tot[i] += p
			if p > best[i] {
				best[i], from[i] = p, int32(s)
			}
		}
	}
}

// strongest4 folds four powers, in tx order, into a running first-strongest
// (strict >) pair. It is the slow path of the totals passes, taken only when
// the group's sum beats the running maximum.
//
//sinrlint:hotpath
func strongest4(b float64, id int32, p0, p1, p2, p3 float64, s0, s1, s2, s3 int) (float64, int32) {
	if p0 > b {
		b, id = p0, int32(s0)
	}
	if p1 > b {
		b, id = p1, int32(s1)
	}
	if p2 > b {
		b, id = p2, int32(s2)
	}
	if p3 > b {
		b, id = p3, int32(s3)
	}
	return b, id
}

// decodesStrongest applies the reference SINR test to a receiver's
// strongest sender; by the argument above no other sender can pass.
//
//sinrlint:hotpath
func (f *FastChannel) decodesStrongest(total, signal float64) bool {
	return signal >= f.cullPower && signal/(total-signal+f.noise) >= f.beta
}

// matrixChunk evaluates receivers [lo, hi) against the cached power matrix
// with one transmitter-major pass.
//
//sinrlint:hotpath
func (f *FastChannel) matrixChunk(lo, hi, worker int) {
	tot, best, from := f.accTot[lo:hi], f.accBest[lo:hi], f.accFrom[lo:hi]
	f.denseTotals(lo, hi, tot, best, from)
	dec := f.decoded[worker]
	isTx := f.isTx[lo:hi]
	for i := range tot {
		if isTx[i] {
			continue // half-duplex: a transmitting node cannot receive
		}
		if f.decodesStrongest(tot[i], best[i]) {
			r := lo + i
			f.out[r].Sender = int(from[i])
			dec = append(dec, r)
		}
	}
	f.decoded[worker] = dec
}

// sparseMatrixChunk evaluates the slot's candidate receivers [lo, hi) (by
// candidate index) against the cached power matrix: the same pass and
// decode as matrixChunk over the candidate list.
//
//sinrlint:hotpath
func (f *FastChannel) sparseMatrixChunk(lo, hi, worker int) {
	rs := f.candidates[lo:hi]
	tot, best, from := f.accTot[lo:hi], f.accBest[lo:hi], f.accFrom[lo:hi]
	f.sparseTotals(rs, tot, best, from)
	dec := f.decoded[worker]
	for i, r := range rs {
		if f.isTx[r] {
			continue
		}
		if f.decodesStrongest(tot[i], best[i]) {
			f.out[r].Sender = int(from[i])
			dec = append(dec, r)
		}
	}
	f.decoded[worker] = dec
}

// gridChunk evaluates receivers [lo, hi) on the spatial-grid far-field
// path: receivers with no transmitter within the transmission range are
// culled outright, and the rest compute each received power exactly once
// into the worker's scratch row.
//
//sinrlint:hotpath
func (f *FastChannel) gridChunk(lo, hi, worker int) {
	tx := f.tx
	dec := f.decoded[worker]
	row := f.workerRow(worker)
	for r := lo; r < hi; r++ {
		if f.isTx[r] {
			continue
		}
		if !f.grid.AnyWithin(f.pos[r], f.cullRadius, f.txPred) {
			continue // far field: no transmitter can reach this receiver
		}
		rx, ry := f.px[r], f.py[r]
		total := 0.0
		for j, s := range tx {
			var pw float64
			if col := f.cols[s]; col != nil {
				pw = col[r]
			} else {
				pw = f.pairPower(f.px[s], f.py[s], rx, ry)
			}
			row[j] = pw
			total += pw
		}
		for j, s := range tx {
			signal := row[j]
			if signal < f.cullPower {
				continue
			}
			if signal/(total-signal+f.noise) >= f.beta {
				f.out[r].Sender = s
				dec = append(dec, r)
				break
			}
		}
	}
	f.decoded[worker] = dec
}

// sparseGridChunk evaluates the slot's candidate receivers [lo, hi) (by
// candidate index) on the grid path. Candidates are exactly the receivers
// AnyWithin would pass, so the existence probe is skipped; the power
// arithmetic is identical to gridChunk.
//
//sinrlint:hotpath
func (f *FastChannel) sparseGridChunk(lo, hi, worker int) {
	tx := f.tx
	dec := f.decoded[worker]
	row := f.workerRow(worker)
	for i := lo; i < hi; i++ {
		r := f.candidates[i]
		if f.isTx[r] {
			continue
		}
		rx, ry := f.px[r], f.py[r]
		total := 0.0
		for j, s := range tx {
			var pw float64
			if col := f.cols[s]; col != nil {
				pw = col[r]
			} else {
				pw = f.pairPower(f.px[s], f.py[s], rx, ry)
			}
			row[j] = pw
			total += pw
		}
		for j, s := range tx {
			signal := row[j]
			if signal < f.cullPower {
				continue
			}
			if signal/(total-signal+f.noise) >= f.beta {
				f.out[r].Sender = s
				dec = append(dec, r)
				break
			}
		}
	}
	f.decoded[worker] = dec
}
