package sinr

import (
	"sync"
	"sync/atomic"

	"sinrmac/internal/geom"
)

// This file implements the hierarchical-bounds tier of FastChannel: an
// O(occupied cells) per-receiver slot evaluator for dense transmitter sets
// that emits the exact decode decision whenever conservative interference
// bounds already determine it, and falls back to the exact per-receiver
// arithmetic (identical to the dense chunk evaluators) only inside the thin
// ambiguous band around the SINR threshold β.
//
// # Structure
//
// The deployment is decomposed once into square cells of side cullRadius
// (geom.CellIndex, the same lattice the culling grid uses). Per slot, the
// transmitter set is aggregated per cell in O(k): a transmitter count and a
// CSR list per occupied cell. Because received power is a monotone function
// of distance, the total interference a receiver in cell rc observes from
// the transmitters of cell tc is bounded by
//
//	cnt(tc)·pw(dmax(rc,tc)) <= Σ <= cnt(tc)·pw(dmin(rc,tc))
//
// where dmin/dmax are the conservative cell-pair distance bounds of
// geom.CellOffsetDistBounds. Those depend only on the integer lattice
// offset, so pw(dmin)/pw(dmax) are precomputed once per evaluator into
// per-offset tables and each (receiver cell, transmitter cell) pair costs
// two table lookups. Cells whose distance lower bound does not exceed
// cullRadius are "near": only they can contain a decodable sender (beyond
// cullRadius every received power is provably below cullPower), so near
// cells are expanded exactly per receiver while far cells contribute only
// their aggregate bounds. The per-slot prep pass computes, for every
// receiver cell, the far-cell bound sums and the near-cell list — O(cells ×
// occupied tx cells) total, amortized O(occupied cells / receivers-per-cell)
// per receiver — and the per-receiver pass then costs O(near transmitters)
// plus O(1).
//
// # Decision exactness
//
// The tier never emits an approximate value: its only output is the decode
// decision (Reception.Sender), and a decision is emitted directly only when
// it is provably identical to what the exact evaluator computes. Since
// β > 1, at most one sender can decode at a receiver, and that sender must
// be the strongest one, which lies in a near cell and is found exactly
// during near expansion (power p*, identity s*). With S the true real
// interference total, the exact path's floating-point total Ŝ satisfies
// |Ŝ-S|/S <= (k-1)·ulp/2 up to second order; the tier widens its bounds
// multiplicatively by slack ε_k = 4·2⁻⁵²·(k+64) — covering both that
// summation error and the rounding of the bound arithmetic itself — so that
// loW <= Ŝ <= hiW holds for the FP sum the exact path would compute, in any
// summation order. Then:
//
//   - decode is certified when p* >= β·(1+ε_k)·(hiW - p* + N): the exact
//     path's SINR for s* is at least β, and no other sender can reach β
//     (its interference includes p*, forcing its ratio below 1);
//   - silence is certified when pMax < β·(1-ε_k)·(max(0, loW-pMax) + N)
//     with pMax = max(p*, far-cell power upper bound): the SINR ratio is
//     monotone in the signal, so every sender's exact ratio stays below β.
//
// If neither certificate fires — the receiver sits within the bounds' gap
// of the threshold — the receiver is refined: re-evaluated with the exact
// dense arithmetic (same power source, same tx-order summation), so the
// output is bit-identical to Channel.SlotReceptions in every case. Ties for
// the strongest power can never certify (the rival's power alone pushes the
// bound past the certificate) and therefore also refine.
//
// The ε_k slack argument additionally needs β itself to clear 1 by more
// than the accumulated rounding; boundsBetaMin guards that degenerate
// corner by disabling the tier (Params.Validate already requires β > 1).

// boundsBetaMin is the minimum β-1 for which the bounds tier is enabled:
// the decision-exactness argument needs the SINR threshold to exceed 1 by
// more than the floating-point slack ε_k, and 1e-9 leaves six orders of
// magnitude of margin over ε_k at k = 10⁶.
const boundsBetaMin = 1e-9

// boundsDistPad is the relative padding applied when the per-offset power
// tables are built: upper-bound powers are evaluated at dmin·(1-pad) and
// lower-bound powers at dmax·(1+pad), so the handful of ulps of rounding in
// the distance and power computations can never make a table entry
// non-conservative.
const boundsDistPad = 1e-12

// boundsSafety is the factor by which the bounds tier's estimated slot cost
// must undercut the dense scan's before the adaptive dispatch selects it;
// the margin absorbs the estimate's uniformity assumption and the (not
// estimated) exact-refine fraction.
const boundsSafety = 2.0

// boundsMaxOffsets caps the per-offset power tables: a deployment whose
// extent spans so many cells that the (2·spanX+1)·(2·spanY+1) offset tables
// would exceed this many entries (2M entries = 2 × 16 MiB) keeps the bounds
// tier disabled rather than paying unbounded memory for outlier geometry.
const boundsMaxOffsets = 1 << 21

// BoundsStats snapshots the bounds tier's instrumentation counters. The
// refine rate — the fraction of bounds-evaluated receivers whose decision
// the bounds could not certify — is the tier's effectiveness measure:
// certified receivers cost O(near transmitters), refined ones pay the full
// O(k) exact evaluation on top.
type BoundsStats struct {
	// Slots is the number of slots the bounds tier evaluated.
	Slots uint64
	// Receivers is the number of listening receivers those slots evaluated.
	Receivers uint64
	// Refined is how many of those receivers fell back to the exact
	// evaluator because neither certificate fired.
	Refined uint64
}

// RefineRate returns Refined/Receivers, or 0 when nothing was evaluated.
func (s BoundsStats) RefineRate() float64 {
	if s.Receivers == 0 {
		return 0
	}
	return float64(s.Refined) / float64(s.Receivers)
}

// BoundsStats returns the tier's counters accumulated since the evaluator
// was created (or since ResetBoundsStats). It is safe to call concurrently
// with slot evaluation; a concurrent read observes some recent state.
func (f *FastChannel) BoundsStats() BoundsStats {
	return BoundsStats{
		Slots:     atomic.LoadUint64(&f.boundsSlots),
		Receivers: atomic.LoadUint64(&f.boundsReceivers),
		Refined:   atomic.LoadUint64(&f.boundsRefined),
	}
}

// ResetBoundsStats zeroes the tier's counters; benchmark drivers call it
// between cases so each case reports its own refine rate. Forks start with
// zeroed counters of their own.
func (f *FastChannel) ResetBoundsStats() {
	atomic.StoreUint64(&f.boundsSlots, 0)
	atomic.StoreUint64(&f.boundsReceivers, 0)
	atomic.StoreUint64(&f.boundsRefined, 0)
}

// boundsIndex is the immutable part of the bounds tier: the cell
// decomposition and the per-offset power-bound tables. It is built lazily
// on the first slot that considers the tier and shared by forks.
type boundsIndex struct {
	cells *geom.CellIndex
	// pwUB/pwLB bound the received power between any point pair of two
	// cells at lattice offset (dx, dy), indexed by
	// (dx+spanX)·(2·spanY+1) + dy+spanY.
	pwUB, pwLB []float64
	// nearOff flags the offsets whose distance lower bound does not exceed
	// cullRadius: only such cells can contain a decodable sender, and they
	// are expanded exactly.
	nearOff []bool
	// nearStride is the number of near offsets — the per-receiver-cell
	// capacity of the near-cell lists (each near offset names at most one
	// cell).
	nearStride   int
	spanX, spanY int
	// shard is the sharded regime's extension (supercell tables and the
	// shard partition, see shard.go), attached under the holder lock when
	// an evaluator family runs sharded; nil for the flat bounds tier.
	shard *shardExt
}

// boundsHolder shares one lazily built boundsIndex between an evaluator
// and all its forks: whichever of them first takes a dense slot builds the
// index, concurrent forks block on the mutex instead of duplicating the
// O(n) decomposition and the offset tables. Unlike a sync.Once the holder
// can be reset: a churn epoch whose changes escape the original lattice
// invalidates it in place (no allocation on the apply path) and the next
// dense slot rebuilds from the post-epoch positions.
type boundsHolder struct {
	mu    sync.Mutex
	built bool
	idx   *boundsIndex // nil when the tier is latched off
	off   bool
}

// invalidate drops the holder's index so the next dense slot rebuilds it.
func (h *boundsHolder) invalidate() {
	h.mu.Lock()
	h.built, h.idx, h.off = false, nil, false
	h.mu.Unlock()
}

// ensureBoundsIndex resolves the shared cell decomposition and offset
// tables, building them exactly once across all forks (until a churn epoch
// invalidates the holder), and sizes this evaluator's private scratch. The
// tier is latched off instead when the deployment's extent would make the
// tables exceed boundsMaxOffsets.
func (f *FastChannel) ensureBoundsIndex() {
	h := f.bholder
	h.mu.Lock()
	if !h.built {
		h.idx, h.off = f.buildBoundsIndex()
		h.built = true
	}
	f.bidx, f.boundsOff = h.idx, h.off
	h.mu.Unlock()
	if f.bidx != nil {
		f.growBoundsScratch()
	}
}

// buildBoundsIndex constructs the cell decomposition and per-offset power
// tables from the evaluator's immutable state (positions, radius, params).
func (f *FastChannel) buildBoundsIndex() (*boundsIndex, bool) {
	cells := geom.NewCellIndex(f.pos, f.cullRadius)
	sx, sy := cells.Span()
	w, h := 2*sx+1, 2*sy+1
	if w*h > boundsMaxOffsets {
		return nil, true
	}
	bi := &boundsIndex{
		cells:   cells,
		pwUB:    make([]float64, w*h),
		pwLB:    make([]float64, w*h),
		nearOff: make([]bool, w*h),
		spanX:   sx,
		spanY:   sy,
	}
	for dx := -sx; dx <= sx; dx++ {
		for dy := -sy; dy <= sy; dy++ {
			dmin, dmax := geom.CellOffsetDistBounds(dx, dy, f.cullRadius)
			idx := (dx+sx)*h + dy + sy
			bi.pwUB[idx] = f.ch.params.ReceivedPower(dmin * (1 - boundsDistPad))
			bi.pwLB[idx] = f.ch.params.ReceivedPower(dmax * (1 + boundsDistPad))
			if dmin <= f.cullRadius*(1+boundsDistPad) {
				bi.nearOff[idx] = true
				bi.nearStride++
			}
		}
	}
	return bi, false
}

// growBoundsScratch sizes the per-slot scratch of the bounds tier for the
// evaluator's own use. Forks share the index but call this to own private
// scratch. It is also re-run after churn epochs, which can grow the cell
// count (or swap in a rebuilt index with a different shape); scratch already
// large enough is kept, so steady-state churn allocates nothing here.
func (f *FastChannel) growBoundsScratch() {
	nc := f.bidx.cells.NumCells()
	if len(f.txCellCnt) >= nc && len(f.nearCells) >= nc*f.bidx.nearStride {
		return
	}
	f.txCellCnt = make([]int32, nc)
	f.txCellStart = make([]int32, nc)
	f.txCellFill = make([]int32, nc)
	f.occT = make([]int32, 0, nc)
	f.loFar = make([]float64, nc)
	f.hiFar = make([]float64, nc)
	f.farMaxUB = make([]float64, nc)
	f.nearCnt = make([]int32, nc)
	f.nearCells = make([]int32, nc*f.bidx.nearStride)
}

// prepareBounds decides whether the slot with k >= 1 transmitters takes the
// bounds tier and, if so, builds the per-cell transmitter aggregates. It
// must run after f.tx is set. On rejection all touched scratch is restored,
// so the dense path sees a clean evaluator.
//
// The adaptive decision (boundsFactor == 0) models per-slot op counts: the
// dense scan costs listeners·k, the bounds tier k (aggregation) +
// cells·occupiedTxCells (the prep pass) + listeners·(expected near
// transmitters + O(1)); the tier is taken only when it undercuts the dense
// scan by boundsSafety. A positive boundsFactor forces the tier (tests pin
// paths with it), a negative one disables it; either way the β guard is
// respected.
func (f *FastChannel) prepareBounds(k int) bool {
	if f.boundsFactor < 0 || f.boundsOff || f.beta-1 < boundsBetaMin {
		return false
	}
	if f.bidx == nil {
		// Build lazily, but in the adaptive mode only once slots are dense
		// enough that the tier could plausibly win (the cost model below
		// needs the cell count, which requires the index).
		if f.boundsFactor == 0 && k < 16 {
			return false
		}
		f.ensureBoundsIndex()
		if f.boundsOff {
			return false
		}
	}
	cells := f.bidx.cells
	nc := cells.NumCells()
	listeners := float64(f.n - k)
	denseCost := listeners * float64(k)
	nearTx := float64(k) * float64(f.bidx.nearStride) / float64(nc)
	if f.boundsFactor == 0 {
		// Pre-count rejection: even with a single occupied transmitter cell
		// the tier cannot cost less than this, so slots the model will
		// reject anyway (all-transmit above all: listeners = 0) skip the
		// O(k) aggregation instead of paying it just to learn that.
		minCost := float64(k) + float64(nc) + listeners*(nearTx+8)
		if minCost*boundsSafety > denseCost {
			return false
		}
	}
	occ := f.occT[:0]
	for _, t := range f.tx {
		c := cells.CellOf(t)
		if f.txCellCnt[c] == 0 {
			occ = append(occ, int32(c))
		}
		f.txCellCnt[c]++
	}
	f.occT = occ
	if f.boundsFactor == 0 {
		boundsCost := float64(k) + float64(nc)*float64(len(occ)) + listeners*(nearTx+8)
		if boundsCost*boundsSafety > denseCost {
			for _, c := range occ {
				f.txCellCnt[c] = 0
			}
			return false
		}
	}
	// CSR of the slot's transmitters grouped by cell.
	if cap(f.txByCell) < k {
		f.txByCell = make([]int32, k)
	}
	f.txByCell = f.txByCell[:k]
	pos := int32(0)
	for _, c := range occ {
		f.txCellStart[c] = pos
		f.txCellFill[c] = pos
		pos += f.txCellCnt[c]
	}
	for _, t := range f.tx {
		c := cells.CellOf(t)
		f.txByCell[f.txCellFill[c]] = int32(t)
		f.txCellFill[c]++
	}
	// Rounding slack: covers the exact path's k-term FP summation in any
	// order plus the bound arithmetic's own rounding, with headroom.
	epsK := 4.0 * 0x1p-52 * float64(k+64)
	f.slackUp, f.slackDown = 1+epsK, 1-epsK
	f.betaHi, f.betaLo = f.beta*(1+epsK), f.beta*(1-epsK)
	atomic.AddUint64(&f.boundsSlots, 1)
	return true
}

// finishBounds restores the per-cell aggregates after the slot.
func (f *FastChannel) finishBounds() {
	for _, c := range f.occT {
		f.txCellCnt[c] = 0
	}
}

// boundsPrepChunk computes, for every receiver cell in [lo, hi), the
// far-cell interference bound sums, the largest far-cell power upper bound,
// and the list of occupied near cells. It writes only per-cell entries of
// its range, so chunks race on nothing.
//
// Receiver cells are processed in 4-wide blocks sharing one pass over the
// occupied-cell list: the transmitter cell's coordinates and occupancy
// count load once per occupied cell instead of once per (receiver cell,
// occupied cell) pair, and the four lanes' bound sums accumulate through
// independent chains. Each lane performs exactly the scalar body's
// operations in occupied-cell order — per-lane sums, near-list appends and
// max updates are untouched — so every aggregate is bit-identical to the
// scalar loop's (hoisting the count conversion out of the far branch
// changes no arithmetic: the multiply still happens only in the far case).
//
//sinrlint:hotpath
func (f *FastChannel) boundsPrepChunk(lo, hi, _ int) {
	bi := f.bidx
	occ := f.occT
	stride := bi.nearStride
	h := 2*bi.spanY + 1
	rc := lo
	for ; rc+4 <= hi; rc += 4 {
		rcx0, rcy0 := bi.cells.Coord(rc)
		rcx1, rcy1 := bi.cells.Coord(rc + 1)
		rcx2, rcy2 := bi.cells.Coord(rc + 2)
		rcx3, rcy3 := bi.cells.Coord(rc + 3)
		var lo0, lo1, lo2, lo3 float64
		var hi0, hi1, hi2, hi3 float64
		var fm0, fm1, fm2, fm3 float64
		var nr0, nr1, nr2, nr3 int
		base0 := rc * stride
		base1 := (rc + 1) * stride
		base2 := (rc + 2) * stride
		base3 := (rc + 3) * stride
		for _, c := range occ {
			tcx, tcy := bi.cells.Coord(int(c))
			cnt := float64(f.txCellCnt[c])
			if idx := (tcx-rcx0+bi.spanX)*h + tcy - rcy0 + bi.spanY; bi.nearOff[idx] {
				f.nearCells[base0+nr0] = c
				nr0++
			} else {
				lo0 += cnt * bi.pwLB[idx]
				ub := bi.pwUB[idx]
				hi0 += cnt * ub
				if ub > fm0 {
					fm0 = ub
				}
			}
			if idx := (tcx-rcx1+bi.spanX)*h + tcy - rcy1 + bi.spanY; bi.nearOff[idx] {
				f.nearCells[base1+nr1] = c
				nr1++
			} else {
				lo1 += cnt * bi.pwLB[idx]
				ub := bi.pwUB[idx]
				hi1 += cnt * ub
				if ub > fm1 {
					fm1 = ub
				}
			}
			if idx := (tcx-rcx2+bi.spanX)*h + tcy - rcy2 + bi.spanY; bi.nearOff[idx] {
				f.nearCells[base2+nr2] = c
				nr2++
			} else {
				lo2 += cnt * bi.pwLB[idx]
				ub := bi.pwUB[idx]
				hi2 += cnt * ub
				if ub > fm2 {
					fm2 = ub
				}
			}
			if idx := (tcx-rcx3+bi.spanX)*h + tcy - rcy3 + bi.spanY; bi.nearOff[idx] {
				f.nearCells[base3+nr3] = c
				nr3++
			} else {
				lo3 += cnt * bi.pwLB[idx]
				ub := bi.pwUB[idx]
				hi3 += cnt * ub
				if ub > fm3 {
					fm3 = ub
				}
			}
		}
		f.nearCnt[rc], f.nearCnt[rc+1], f.nearCnt[rc+2], f.nearCnt[rc+3] = int32(nr0), int32(nr1), int32(nr2), int32(nr3)
		f.loFar[rc], f.loFar[rc+1], f.loFar[rc+2], f.loFar[rc+3] = lo0, lo1, lo2, lo3
		f.hiFar[rc], f.hiFar[rc+1], f.hiFar[rc+2], f.hiFar[rc+3] = hi0, hi1, hi2, hi3
		f.farMaxUB[rc], f.farMaxUB[rc+1], f.farMaxUB[rc+2], f.farMaxUB[rc+3] = fm0, fm1, fm2, fm3
	}
	for ; rc < hi; rc++ {
		rcx, rcy := bi.cells.Coord(rc)
		loSum, hiSum, farMax := 0.0, 0.0, 0.0
		near := 0
		base := rc * stride
		for _, c := range occ {
			tcx, tcy := bi.cells.Coord(int(c))
			idx := (tcx-rcx+bi.spanX)*h + tcy - rcy + bi.spanY
			if bi.nearOff[idx] {
				f.nearCells[base+near] = c
				near++
				continue
			}
			cnt := float64(f.txCellCnt[c])
			loSum += cnt * bi.pwLB[idx]
			ub := bi.pwUB[idx]
			hiSum += cnt * ub
			if ub > farMax {
				farMax = ub
			}
		}
		f.nearCnt[rc] = int32(near)
		f.loFar[rc] = loSum
		f.hiFar[rc] = hiSum
		f.farMaxUB[rc] = farMax
	}
}

// boundsGridChunk evaluates receivers [lo, hi) on the bounds tier in the
// grid regime (powers from the lazy column cache, recomputed on a cache
// miss). Certified receivers cost O(near transmitters); the rest re-run the
// exact dense arithmetic of gridChunk — same power source, same tx-order
// summation — so the emitted decisions are bit-identical to the dense scan.
//
//sinrlint:hotpath
func (f *FastChannel) boundsGridChunk(lo, hi, worker int) {
	tx := f.tx
	dec := f.decoded[worker]
	row := f.workerRow(worker)
	bi := f.bidx
	stride := bi.nearStride
	var evaluated, refined uint64
	for r := lo; r < hi; r++ {
		if f.isTx[r] {
			continue
		}
		evaluated++
		rx, ry := f.px[r], f.py[r]
		rc := bi.cells.CellOf(r)
		exactNear := 0.0
		best := -1
		bestPow := 0.0
		base := rc * stride
		for i := 0; i < int(f.nearCnt[rc]); i++ {
			c := f.nearCells[base+i]
			cstart := f.txCellStart[c]
			for _, s := range f.txByCell[cstart : cstart+f.txCellCnt[c]] {
				var pw float64
				if col := f.cols[s]; col != nil {
					pw = col[r]
				} else {
					pw = f.pairPower(f.px[s], f.py[s], rx, ry)
				}
				exactNear += pw
				if pw > bestPow {
					bestPow = pw
					best = int(s)
				}
			}
		}
		loW := (exactNear + f.loFar[rc]) * f.slackDown
		hiW := (exactNear + f.hiFar[rc]) * f.slackUp
		if best >= 0 && bestPow >= f.betaHi*(hiW-bestPow+f.noise) {
			f.out[r].Sender = best
			dec = append(dec, r)
			continue
		}
		pMax := bestPow
		if f.farMaxUB[rc] > pMax {
			pMax = f.farMaxUB[rc]
		}
		itf := loW - pMax
		if itf < 0 {
			itf = 0
		}
		if pMax < f.betaLo*(itf+f.noise) {
			continue // certified: nothing decodes here
		}
		// Ambiguous band: exact fallback, identical to gridChunk.
		refined++
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
	atomic.AddUint64(&f.boundsReceivers, evaluated)
	atomic.AddUint64(&f.boundsRefined, refined)
}

// boundsMatrixChunk is boundsGridChunk with powers served from the cached
// n×n matrix; its fallback reads the receiver's own matrix row.
//
//sinrlint:hotpath
func (f *FastChannel) boundsMatrixChunk(lo, hi, worker int) {
	tx := f.tx
	dec := f.decoded[worker]
	bi := f.bidx
	stride := bi.nearStride
	var evaluated, refined uint64
	for r := lo; r < hi; r++ {
		if f.isTx[r] {
			continue
		}
		evaluated++
		mrow := f.mat[r*f.stride : r*f.stride+f.n]
		rc := bi.cells.CellOf(r)
		exactNear := 0.0
		best := -1
		bestPow := 0.0
		base := rc * stride
		for i := 0; i < int(f.nearCnt[rc]); i++ {
			c := f.nearCells[base+i]
			cstart := f.txCellStart[c]
			for _, s := range f.txByCell[cstart : cstart+f.txCellCnt[c]] {
				pw := mrow[s]
				exactNear += pw
				if pw > bestPow {
					bestPow = pw
					best = int(s)
				}
			}
		}
		loW := (exactNear + f.loFar[rc]) * f.slackDown
		hiW := (exactNear + f.hiFar[rc]) * f.slackUp
		if best >= 0 && bestPow >= f.betaHi*(hiW-bestPow+f.noise) {
			f.out[r].Sender = best
			dec = append(dec, r)
			continue
		}
		pMax := bestPow
		if f.farMaxUB[rc] > pMax {
			pMax = f.farMaxUB[rc]
		}
		itf := loW - pMax
		if itf < 0 {
			itf = 0
		}
		if pMax < f.betaLo*(itf+f.noise) {
			continue
		}
		refined++
		total := 0.0
		for _, s := range tx {
			total += mrow[s]
		}
		for _, s := range tx {
			signal := mrow[s]
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
	atomic.AddUint64(&f.boundsReceivers, evaluated)
	atomic.AddUint64(&f.boundsRefined, refined)
}
