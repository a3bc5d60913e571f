package graphs

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// allPairsUnitDisk is the reference UnitDisk: every pair tested with the
// exact predicate, neighbour lists ascending.
func allPairsUnitDisk(pos []geom.Point, radius float64) [][]int {
	adj := make([][]int, len(pos))
	for u := range pos {
		for v := u + 1; v < len(pos); v++ {
			if pos[u].Dist(pos[v]) <= radius {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}

// checkUnitDisk compares UnitDisk's adjacency, list by list, with the
// all-pairs oracle and returns the number of edges.
func checkUnitDisk(t testing.TB, pos []geom.Point, radius float64) int {
	t.Helper()
	g := UnitDisk(pos, radius)
	want := allPairsUnitDisk(pos, radius)
	if g.NumNodes() != len(pos) {
		t.Fatalf("r=%v: %d nodes, want %d", radius, g.NumNodes(), len(pos))
	}
	edges := 0
	for u := range pos {
		if !slices.Equal(g.adj[u], want[u]) {
			t.Fatalf("r=%v (bits %x), n=%d: node %d at %v has neighbours %v, all-pairs oracle %v",
				radius, math.Float64bits(radius), len(pos), u, pos[u], g.adj[u], want[u])
		}
		edges += len(want[u])
	}
	return edges / 2
}

// lattice returns a k×k square lattice with the given spacing whose lower
// left point is at origin.
func lattice(k int, spacing float64, origin geom.Point) []geom.Point {
	pos := make([]geom.Point, 0, k*k)
	for i := range k {
		for j := range k {
			pos = append(pos, geom.Point{X: origin.X + float64(i)*spacing, Y: origin.Y + float64(j)*spacing})
		}
	}
	return pos
}

func TestUnitDiskMatchesAllPairs(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		params := sinr.DefaultParams(12)
		for _, n := range []int{300, 2000} {
			for _, seed := range []uint64{1, 5} {
				pos := uniformPositions(n, seed)
				for _, a := range []float64{1 - 2*params.Epsilon, 1 - params.Epsilon, 1} {
					if checkUnitDisk(t, pos, params.RangeA(a)) == 0 {
						t.Fatalf("n=%d seed=%d a=%v: no edges", n, seed, a)
					}
				}
			}
		}
		// Unscaled clouds at radii from well below to well above the mean
		// spacing, shifted to straddle the origin.
		src := rng.New(3)
		for trial := range 40 {
			n := 2 + src.Intn(400)
			side := 0.5 + src.Float64()*100
			pos := make([]geom.Point, n)
			for i := range pos {
				pos[i] = geom.Point{X: (src.Float64() - 0.5) * side, Y: (src.Float64() - 0.3) * side}
			}
			r := side * math.Pow(10, -3+3*src.Float64())
			t.Run(fmt.Sprint(trial), func(t *testing.T) { checkUnitDisk(t, pos, r) })
		}
	})

	t.Run("lattice", func(t *testing.T) {
		for _, r := range []float64{1, 0.1, 3.7, 10.8, 1e-3, 12 * 0.9} {
			for _, spacing := range []float64{r, math.Nextafter(r, math.Inf(1)), math.Nextafter(r, 0)} {
				for _, origin := range []geom.Point{{}, {X: 0.1, Y: -0.3}, {X: -7 * r, Y: -7 * r}, {X: 1e6, Y: -1e6}} {
					edges := checkUnitDisk(t, lattice(12, spacing, origin), r)
					if spacing <= r && edges == 0 {
						t.Fatalf("r=%v spacing=%v origin=%v: no edges", r, spacing, origin)
					}
				}
			}
		}
	})

	t.Run("cell-straddle", func(t *testing.T) {
		// Edges whose endpoints, in cells of side exactly r, sit two cells
		// apart: the exact coordinate difference exceeds r, but the
		// subtraction rounds it to r, so Dist = r. The left ends sit just
		// below the multiples of r (down to the smallest subnormal below
		// zero), the right ends around the next multiple but one.
		for _, r := range []float64{1, 0.1, 3.7, 10.8, 1e-3, 1e5, 0.75} {
			var pos []geom.Point
			for k := -6; k <= 6; k++ {
				b := float64(k) * r
				lefts := []float64{math.Nextafter(b, math.Inf(-1))}
				if k == 0 {
					lefts = append(lefts, -(math.Nextafter(r, math.Inf(1))-r)/4)
				}
				for range 3 {
					lefts = append(lefts, math.Nextafter(lefts[len(lefts)-1], math.Inf(-1)))
				}
				for _, xu := range lefts {
					xv := math.Nextafter(xu+r, math.Inf(-1))
					for range 5 {
						xv = math.Nextafter(xv, math.Inf(1))
						y := float64(len(pos)) * 3 * r
						u, v := geom.Point{X: xu, Y: y}, geom.Point{X: xv, Y: y}
						if u.Dist(v) <= r && math.Floor(xv/r)-math.Floor(xu/r) == 2 {
							pos = append(pos, u, v, geom.Point{X: y, Y: xu}, geom.Point{X: y, Y: xv})
						}
					}
				}
			}
			if len(pos) == 0 {
				t.Fatalf("r=%v: the construction planted no straddling edge", r)
			}
			if edges := checkUnitDisk(t, pos, r); edges < len(pos)/2 {
				t.Fatalf("r=%v: %d edges over %d planted pairs", r, edges, len(pos)/2)
			}
		}
	})

	t.Run("negative-and-colocated", func(t *testing.T) {
		src := rng.New(9)
		pos := make([]geom.Point, 0, 300)
		for len(pos) < 300 {
			p := geom.Point{X: -100 + src.Float64()*60, Y: -40 - src.Float64()*60}
			pos = append(pos, p)
			if src.Bernoulli(0.2) {
				pos = append(pos, p, p)
			}
		}
		for _, r := range []float64{0, 0.5, 2, 7} {
			checkUnitDisk(t, pos, r)
		}
	})

	t.Run("tiny", func(t *testing.T) {
		pair := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}
		for _, pos := range [][]geom.Point{nil, {}, pair[:1], pair} {
			for _, r := range []float64{0, 4.999, 5, 6} {
				checkUnitDisk(t, pos, r)
			}
		}
	})

	t.Run("degenerate-radius", func(t *testing.T) {
		inf, nan := math.Inf(1), math.NaN()
		pos := []geom.Point{
			{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 1}, {X: -3, Y: 2}, {X: 1e300, Y: -1e300},
			{X: inf, Y: 0}, {X: -inf, Y: 0}, {X: 0, Y: inf}, {X: inf, Y: inf}, {X: nan, Y: 0},
			{X: 1e-170, Y: 0}, {X: 0, Y: 1e-163}, {X: 5e-324, Y: 5e-324},
		}
		for _, r := range []float64{
			0, math.Copysign(0, -1), -1, math.Inf(-1), nan, inf,
			1e-300, 5e-324, 1, math.MaxFloat64,
		} {
			checkUnitDisk(t, pos, r)
		}
	})

	t.Run("huge-coordinates", func(t *testing.T) {
		// Coordinates far beyond the radius: the cell side grows with them
		// and the candidate set degrades towards all pairs, never below
		// the exact answer.
		pos := []geom.Point{{X: 1e18, Y: 0}, {X: 1e18 + 256, Y: 0}, {X: -1e18, Y: 3}, {X: 0, Y: 0}, {X: 0.5, Y: 0}}
		for _, r := range []float64{0.5, 256, 1e18, 2e18} {
			checkUnitDisk(t, pos, r)
		}
	})
}

// TestGraphStorageMatchesMapOracle drives AddEdge with duplicates,
// self-loops and random insertion order and checks every query, Clone and
// InducedSubgraph against a map-of-sets oracle.
func TestGraphStorageMatchesMapOracle(t *testing.T) {
	src := rng.New(17)
	for trial := range 60 {
		n := 1 + src.Intn(60)
		g := New(n)
		oracle := make([]map[int]bool, n)
		for u := range oracle {
			oracle[u] = map[int]bool{}
		}
		for range src.Intn(4 * n * n / 3) {
			u, v := src.Intn(n), src.Intn(n)
			if src.Bernoulli(0.1) {
				v = u
			}
			g.AddEdge(u, v)
			if u != v {
				oracle[u][v] = true
				oracle[v][u] = true
			}
		}
		check := func(name string, g *Graph, ids []int, want []map[int]bool) {
			t.Helper()
			for u := range g.NumNodes() {
				var nbrs []int
				for v := range g.NumNodes() {
					if want[ids[u]][ids[v]] {
						nbrs = append(nbrs, v)
					}
					if got := g.HasEdge(u, v); got != want[ids[u]][ids[v]] {
						t.Fatalf("trial %d %s: HasEdge(%d, %d) = %v", trial, name, u, v, got)
					}
				}
				if got := g.Neighbors(u); !slices.Equal(got, nbrs) {
					t.Fatalf("trial %d %s: Neighbors(%d) = %v, want %v", trial, name, u, got, nbrs)
				}
				if got := g.Degree(u); got != len(nbrs) {
					t.Fatalf("trial %d %s: Degree(%d) = %d, want %d", trial, name, u, got, len(nbrs))
				}
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		check("graph", g, all, oracle)

		c := g.Clone()
		check("clone", c, all, oracle)
		// The clone's lists share one arena; growing one must neither
		// touch the next node's list nor the original graph.
		u, v := src.Intn(n), src.Intn(n)
		grown := make([]map[int]bool, n)
		for w := range grown {
			grown[w] = maps.Clone(oracle[w])
		}
		if u != v {
			grown[u][v] = true
			grown[v][u] = true
		}
		c.AddEdge(u, v)
		check("clone-after-add", c, all, grown)
		check("graph-after-clone-add", g, all, oracle)

		var s []int
		for w := range n {
			if src.Bernoulli(0.5) {
				s = append(s, w, w) // duplicates are dropped
			}
		}
		sub, ids := g.InducedSubgraph(s)
		check("induced", sub, ids, oracle)
	}
}

// TestUnitDiskListsGrowIndependently checks that AddEdge on a UnitDisk
// graph, whose neighbour lists share one arena, leaves every other list
// intact.
func TestUnitDiskListsGrowIndependently(t *testing.T) {
	pos := lattice(6, 1, geom.Point{})
	g := UnitDisk(pos, 1)
	want := allPairsUnitDisk(pos, 1)
	g.AddEdge(0, 35)
	want[0] = append(want[0], 35)
	want[35] = append(want[35], 0)
	slices.Sort(want[35])
	for u := range pos {
		if !slices.Equal(g.adj[u], want[u]) {
			t.Fatalf("node %d: neighbours %v, want %v", u, g.adj[u], want[u])
		}
	}
}

// decodeDisk turns fuzzer bytes into a point set and a radius. data[0]
// holds n = data[0] mod 64 in its low six bits and the coordinate mode in
// its top bit; data[1:9] are the radius's IEEE 754 bits (little endian).
// In lattice mode each coordinate is two bytes, a signed step k and a
// signed nudge j: k·r/2 moved j ulps, which lands points on and around
// cell boundaries and the disk's rim. In raw mode each coordinate is eight
// bytes of IEEE 754 bits. Decoding stops when the bytes run out.
func decodeDisk(data []byte) ([]geom.Point, float64) {
	if len(data) < 9 {
		return nil, 0
	}
	n := int(data[0] & 63)
	raw := data[0]&128 != 0
	r := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
	data = data[9:]
	coord := func() (float64, bool) {
		if raw {
			if len(data) < 8 {
				return 0, false
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return x, true
		}
		if len(data) < 2 {
			return 0, false
		}
		x := float64(int8(data[0])) * r / 2
		j := int(int8(data[1]))
		data = data[2:]
		for ; j > 0; j-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; j < 0; j++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x, true
	}
	var pos []geom.Point
	for len(pos) < n {
		x, okx := coord()
		y, oky := coord()
		if !okx || !oky {
			break
		}
		pos = append(pos, geom.Point{X: x, Y: y})
	}
	return pos, r
}

func FuzzUnitDisk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pos, r := decodeDisk(data)
		checkUnitDisk(t, pos, r)
	})
}

// BenchmarkUnitDiskUniform8000 induces G_{1-ε} over the cmd/sinrsim
// uniform geometry (n = 8000, side 4.4·√n, range 12), by the cell walk and
// by the all-pairs oracle.
func BenchmarkUnitDiskUniform8000(b *testing.B) {
	params := sinr.DefaultParams(12)
	pos := uniformPositions(8000, 1)
	r := params.StrongRange()
	b.Run("cells", func(b *testing.B) {
		edges := 0
		for range b.N {
			edges = UnitDisk(pos, r).NumEdges()
		}
		b.ReportMetric(float64(edges), "edges/op")
	})
	b.Run("allpairs", func(b *testing.B) {
		edges := 0
		for range b.N {
			adj := allPairsUnitDisk(pos, r)
			edges = 0
			for _, a := range adj {
				edges += len(a)
			}
			edges /= 2
		}
		b.ReportMetric(float64(edges), "edges/op")
	})
}
