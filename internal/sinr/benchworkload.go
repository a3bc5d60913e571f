package sinr

import (
	"math"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// BenchWorkload builds the canonical slot-path benchmark workload: n nodes
// drawn uniformly from a 4√n × 4√n square, so the density stays constant as
// n grows (the hardest regime for far-field culling — nearly every receiver
// has transmitters in range), with every tenth node transmitting. It is the
// single definition shared by the top-level BenchmarkSlotReceptions suite
// and cmd/macbench -json, so their measurements stay comparable across PRs.
func BenchWorkload(n int, seed uint64) (*Channel, []int, error) {
	src := rng.New(seed)
	side := 4 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		return nil, nil, err
	}
	var tx []int
	for i := 0; i < n; i += 10 {
		tx = append(tx, i)
	}
	return ch, tx, nil
}

// DenseBenchWorkload builds the dense-slot benchmark workload behind the
// bounds-vs-dense entries of BENCH_macbench.json: n nodes at BenchWorkload's
// canonical density (4√n × 4√n square) with k distinct transmitters drawn
// as the prefix of a seeded permutation — the regime a backoff protocol
// like decay spends its early phases in, where a large fraction of nodes
// transmits at once and the sender-centric sparse path cannot help. It is
// the fixed definition behind the bounds-vs-dense entries of
// BENCH_macbench.json, so those measurements stay comparable across PRs.
func DenseBenchWorkload(n, k int, seed uint64) (*Channel, []int, error) {
	src := rng.New(seed)
	side := 4 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		return nil, nil, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return ch, perm[:k], nil
}

// SparseBenchWorkload builds the sparse-slot benchmark workload: n nodes
// drawn uniformly from an 8√n × 8√n square (a quarter of BenchWorkload's
// density) with ⌈√n⌉ distinct random transmitters — the regime a backoff
// protocol like decay spends most of its slots in, where only a small
// fraction of receivers lies within culling range of any transmitter. It is
// the fixed definition behind the sparse-vs-dense entries of
// BENCH_macbench.json, so those measurements stay comparable across PRs.
func SparseBenchWorkload(n int, seed uint64) (*Channel, []int, error) {
	src := rng.New(seed)
	side := 8 * math.Sqrt(float64(n))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
	}
	ch, err := NewChannel(DefaultParams(12), pos)
	if err != nil {
		return nil, nil, err
	}
	k := int(math.Ceil(math.Sqrt(float64(n))))
	seen := make(map[int]bool, k)
	tx := make([]int, 0, k)
	for len(tx) < k {
		id := src.Intn(n)
		if !seen[id] {
			seen[id] = true
			tx = append(tx, id)
		}
	}
	return ch, tx, nil
}

// BenchFillColumn fills dst[:n] with sender s's received power at every
// node, either through the blocked 4-wide production kernel (the column
// cache's fill path) or through the scalar pairPower loop it replaced. It
// exists for cmd/macbench's within-run blocked-kernel gate and the
// bit-identity tests; production paths always use the blocked kernel.
func (f *FastChannel) BenchFillColumn(dst []float64, s int, blocked bool) {
	dst = dst[:f.n]
	sx, sy := f.px[s], f.py[s]
	if blocked {
		f.fillColumn(dst, sx, sy)
		return
	}
	for r := range dst {
		dst[r] = f.pairPower(sx, sy, f.px[r], f.py[r])
	}
}

// BenchGatherTotals computes the total received power over the
// transmitter set of every receiver in [lo, hi) against the cached power
// matrix into out[:hi-lo], either through the production
// transmitter-major pass (denseTotals, which also tracks every receiver's
// strongest sender) or through the scalar per-receiver tx-order loop the
// matrix kernels used before it. Requires the matrix regime; exported for
// cmd/macbench's within-run kernel gate and the bit-identity tests.
func (f *FastChannel) BenchGatherTotals(out []float64, lo, hi int, tx []int, txMajor bool) {
	if f.mat == nil {
		panic("sinr: BenchGatherTotals requires the matrix regime")
	}
	if txMajor {
		f.growAccumulators()
		f.tx = tx
		f.denseTotals(lo, hi, f.accTot[lo:hi], f.accBest[lo:hi], f.accFrom[lo:hi])
		f.tx = nil
		copy(out, f.accTot[lo:hi])
		return
	}
	for r := lo; r < hi; r++ {
		row := f.mat[r*f.stride : r*f.stride+f.n]
		total := 0.0
		for _, s := range tx {
			total += row[s]
		}
		out[r-lo] = total
	}
}
