package sinr

import (
	"math"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
)

// receiverMajorScan is the matrix regime's former slot kernel, kept only as
// a test oracle: per listening receiver, the tx-order total over its matrix
// row, then a second scan that decodes the first sender in tx order whose
// SINR meets β. The transmitter-major kernel replaced it by testing only
// each receiver's first strongest sender.
func receiverMajorScan(f *FastChannel, tx []int) []Reception {
	out := make([]Reception, f.n)
	isTx := make([]bool, f.n)
	for _, s := range tx {
		isTx[s] = true
	}
	for r := range out {
		out[r].Sender = -1
		if isTx[r] {
			continue
		}
		row := f.mat[r*f.stride : r*f.stride+f.n]
		total := 0.0
		for _, s := range tx {
			total += row[s]
		}
		for _, s := range tx {
			signal := row[s]
			if signal < f.cullPower {
				continue
			}
			if signal/(total-signal+f.noise) >= f.beta {
				out[r].Sender = s
				break
			}
		}
	}
	return out
}

// matrixKernelVariants pins the matrix regime's two slot kernels — the dense
// scan (no sparse path, no bounds tier) and the sparse candidate scan — at
// one worker and at three (so receiver ranges split mid-deployment).
func matrixKernelVariants(t testing.TB, ch *Channel) map[string]*FastChannel {
	t.Helper()
	variants := map[string]*FastChannel{
		"dense/1w":  NewFastChannel(ch, FastOptions{Workers: 1, SparseFactor: -1, BoundsFactor: -1}),
		"dense/3w":  NewFastChannel(ch, FastOptions{Workers: 3, SparseFactor: -1, BoundsFactor: -1}),
		"sparse/1w": NewFastChannel(ch, FastOptions{Workers: 1, SparseFactor: 1}),
		"sparse/3w": NewFastChannel(ch, FastOptions{Workers: 3, SparseFactor: 1}),
	}
	for name, f := range variants {
		if f.mat == nil {
			t.Fatalf("%s: deployment did not select the matrix regime", name)
		}
	}
	return variants
}

// adversarialLayout places nodes in units of the transmission range r:
// node 0 at the origin with four transmitters at exactly equal distance
// (sign flips and axis swaps are exact, so their powers tie bit for bit),
// co-located pairs (including one on node 0, whose distance clamps to 1),
// a node inside the near-field clamp of another, and a random remainder on
// a coarse lattice, which repeats distances.
func adversarialLayout(src *rng.Source, r float64) []geom.Point {
	h := r / 2
	pos := []geom.Point{
		{X: 0, Y: 0},
		{X: h, Y: 0}, {X: -h, Y: 0}, {X: 0, Y: h}, {X: 0, Y: -h},
		{X: 0.3 * r, Y: 0.2 * r}, {X: 0.3 * r, Y: 0.2 * r},
		{X: 0, Y: 0},
		{X: h + 0.25, Y: 0},
		{X: 2 * r, Y: -r}, {X: 2 * r, Y: -r},
	}
	for len(pos) < 40 {
		pos = append(pos, geom.Point{
			X: float64(src.Intn(17)-8) * r / 4,
			Y: float64(src.Intn(17)-8) * r / 4,
		})
	}
	return pos
}

// TestStrongestSenderDecode holds the transmitter-major kernel to the
// receiver-major scan it replaced and to the naive reference on adversarial
// inputs: exact ties at the maximum, duplicate transmitter ids, co-located
// nodes, β one ulp above 1, and powers from ~1e300 (with totals that
// overflow to +Inf) down to subnormals, at every transmitter count k ≤ 9 so
// each remainder of the 4-transmitter groups runs.
func TestStrongestSenderDecode(t *testing.T) {
	nextBeta := math.Nextafter(1, 2)
	scenarios := []struct {
		name                      string
		alpha, beta, noise, power float64
	}{
		{"default", 3, 1.5, 1, DefaultParams(12).Power},
		{"beta-ulp", 3, nextBeta, 1, DefaultParams(12).Power},
		{"alpha-2.5", 2.5, nextBeta, 1, 1e6},
		{"huge", 4, 1.5, 1, 1e300},
		{"overflow", 4, nextBeta, 1, math.MaxFloat64},
		{"subnormal", 3, 1.5, 1e-310, 1e-300},
	}
	src := rng.New(0x57a0)
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			params := Params{Alpha: sc.alpha, Beta: sc.beta, Noise: sc.noise, Power: sc.power, Epsilon: 0.1}
			ch, err := NewChannel(params, adversarialLayout(src, params.Range()))
			if err != nil {
				t.Fatal(err)
			}
			variants := matrixKernelVariants(t, ch)
			defer func() {
				for _, f := range variants {
					f.Close()
				}
			}()
			oracle := variants["dense/1w"]
			check := func(tx []int) {
				t.Helper()
				want := ch.SlotReceptions(tx)
				old := receiverMajorScan(oracle, tx)
				for r := range want {
					if old[r] != want[r] {
						t.Fatalf("tx=%v: receiver-major oracle decodes %d at node %d, reference %d",
							tx, old[r].Sender, r, want[r].Sender)
					}
				}
				for name, f := range variants {
					got := f.SlotReceptions(tx)
					for r := range want {
						if got[r] != want[r] {
							t.Fatalf("%s tx=%v: node %d decoded %d, reference %d",
								name, tx, r, got[r].Sender, want[r].Sender)
						}
					}
				}
			}
			// Hand-built sets: a tie at the maximum seen by node 0, the tie
			// broken by a third transmitter, duplicates of the strongest
			// sender, and co-located senders.
			for _, tx := range [][]int{
				{1}, {1, 2}, {2, 1}, {1, 2, 3, 4}, {9, 1, 2}, {1, 1}, {1, 5, 1},
				{5, 6}, {7}, {7, 1}, {8, 1}, {9, 10, 1}, {1, 9, 9, 9, 9},
				{3, 3, 3, 3, 3, 3, 3, 3, 3},
			} {
				check(tx)
			}
			n := ch.NumNodes()
			for k := 1; k <= 9; k++ {
				for trial := 0; trial < 40; trial++ {
					tx := make([]int, k)
					for i := range tx {
						// Drawing with replacement from the first 14 ids
						// keeps the adversarial nodes in play and repeats ids.
						if trial%2 == 0 {
							tx[i] = src.Intn(14)
						} else {
							tx[i] = src.Intn(n)
						}
					}
					check(tx)
				}
			}
		})
	}
}

// checkMatrixSymmetric requires mat[r*stride+s] and mat[s*stride+r] to agree
// bit for bit over the live n×n block: the transmitter-major kernel reads
// row s as transmitter s's power at every receiver.
func checkMatrixSymmetric(t *testing.T, f *FastChannel, label string) {
	t.Helper()
	if f.mat == nil {
		t.Fatalf("%s: no power matrix", label)
	}
	for r := 0; r < f.n; r++ {
		for s := r + 1; s < f.n; s++ {
			a, b := f.mat[r*f.stride+s], f.mat[s*f.stride+r]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: mat[%d][%d] = %x but mat[%d][%d] = %x",
					label, r, s, math.Float64bits(a), s, r, math.Float64bits(b))
			}
		}
	}
}

// TestPowerMatrixSymmetric checks the precondition of the transmitter-major
// kernel on every path that writes the matrix: construction, an
// incremental ApplyEpoch that patches moved rows and columns in place, one
// that grows the stride, and the full-rebuild fallback.
func TestPowerMatrixSymmetric(t *testing.T) {
	src := rng.New(0x5133)
	params := DefaultParams(12)
	const n = 40
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * 60, Y: src.Float64() * 60}
	}
	ch, err := NewChannel(params, pos)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFastChannel(ch, FastOptions{Workers: 2, SparseFactor: -1, BoundsFactor: -1})
	defer f.Close()
	checkMatrixSymmetric(t, f, "construction")

	apply := func(label string, d *EpochDelta) {
		t.Helper()
		if err := f.ApplyEpoch(d); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkMatrixSymmetric(t, f, label)
		tx := []int{0, 3, d.NewN - 1, 7, 11}
		want := ch.SlotReceptions(tx)
		got := f.SlotReceptions(tx)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%s: node %d decoded %d, reference %d", label, r, got[r].Sender, want[r].Sender)
			}
		}
	}

	// Move three nodes (3 ≤ ChurnRebuildFraction·n): patched in place.
	moved := append([]geom.Point(nil), pos...)
	dirty := []int{2, 17, 33}
	for _, id := range dirty {
		moved[id] = geom.Point{X: src.Float64() * 60, Y: src.Float64() * 60}
	}
	apply("patch", &EpochDelta{OldN: n, NewN: n, Dirty: dirty, Positions: moved})
	if f.stride != n {
		t.Fatalf("patch epoch changed the stride to %d", f.stride)
	}

	// Add five nodes: past the stride, still under the rebuild fraction, so
	// the patch path grows the matrix and copies the valid block.
	grown := append([]geom.Point(nil), moved...)
	var added []int
	for id := n; id < n+5; id++ {
		grown = append(grown, geom.Point{X: src.Float64() * 60, Y: src.Float64() * 60})
		added = append(added, id)
	}
	apply("grow", &EpochDelta{OldN: n, NewN: n + 5, Dirty: added, Added: added, Positions: grown})
	if f.stride == n {
		t.Fatalf("grow epoch left the stride at %d for %d nodes", f.stride, f.n)
	}

	// Move half the nodes: past ChurnRebuildFraction, a full rebuild.
	rebuilt := append([]geom.Point(nil), grown...)
	dirty = dirty[:0]
	for id := 0; id < len(rebuilt); id += 2 {
		rebuilt[id] = geom.Point{X: src.Float64() * 60, Y: src.Float64() * 60}
		dirty = append(dirty, id)
	}
	apply("rebuild", &EpochDelta{OldN: n + 5, NewN: n + 5, Dirty: dirty, Positions: rebuilt})
}

// decodeMatrixSlot turns fuzzer bytes into a matrix-regime slot: byte 0
// picks the node count (2…64), byte 1 the path-loss exponent (2.5, 3 or 4;
// 2.5 takes the generic math.Pow path), byte 2 β (one ulp above 1 at 0,
// else 1 + b/64), then two signed bytes per node place it on a lattice of
// spacing R/16 (so nodes co-locate and distances repeat), and every
// remaining byte names a transmitter modulo n (so ids repeat).
func decodeMatrixSlot(data []byte) (Params, []geom.Point, []int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 2 + int(at(0))%63
	alpha := [...]float64{2.5, 3, 4}[int(at(1))%3]
	beta := math.Nextafter(1, 2)
	if b := at(2); b != 0 {
		beta = 1 + float64(b)/64
	}
	const r = 10.0
	params := Params{Alpha: alpha, Beta: beta, Noise: 1, Epsilon: 0.1}
	params.Power = beta * params.Noise * math.Pow(r, alpha)
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{
			X: float64(int8(at(3+2*i))) * r / 16,
			Y: float64(int8(at(4+2*i))) * r / 16,
		}
	}
	var tx []int
	for i := 3 + 2*n; i < len(data); i++ {
		tx = append(tx, int(data[i])%n)
	}
	if len(tx) == 0 {
		tx = []int{0}
	}
	return params, pos, tx
}

// FuzzMatrixSlot checks the matrix regime's dense and sparse slot kernels
// against the naive reference on fuzzer-chosen deployments, parameters and
// transmitter sets.
func FuzzMatrixSlot(f *testing.F) {
	f.Add([]byte{4, 1, 32, 0, 0, 8, 0, 0, 8, 16, 16, 0, 1, 2})
	f.Add([]byte{6, 0, 0, 0, 0, 4, 0, 252, 0, 0, 4, 0, 252, 0, 0, 1, 2, 3, 4, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		params, pos, tx := decodeMatrixSlot(data)
		ch, err := NewChannel(params, pos)
		if err != nil {
			t.Fatal(err)
		}
		want := ch.SlotReceptions(tx)
		for _, opt := range []FastOptions{
			{Workers: 2, SparseFactor: -1, BoundsFactor: -1},
			{Workers: 2, SparseFactor: 1},
		} {
			fast := NewFastChannel(ch, opt)
			got := fast.SlotReceptions(tx)
			for r := range want {
				if got[r] != want[r] {
					fast.Close()
					t.Fatalf("%+v tx=%v: node %d decoded %d, reference %d",
						opt, tx, r, got[r].Sender, want[r].Sender)
				}
			}
			fast.Close()
		}
	})
}
