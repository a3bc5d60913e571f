package graphs

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sinrmac/internal/geom"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// allPairsDiameter is the reference Diameter: one BFS per node.
func allPairsDiameter(g *Graph) int {
	max := 0
	for u := 0; u < g.n; u++ {
		if e := g.Eccentricity(u); e > max {
			max = e
		}
	}
	return max
}

// checkDiameter compares Diameter with the all-pairs oracle and checks that
// no component spends more BFS runs than it has nodes.
func checkDiameter(t *testing.T, g *Graph) {
	t.Helper()
	comps := g.Components()
	var sizes, runs []int
	got := g.diameter(func(size, r int) {
		sizes = append(sizes, size)
		runs = append(runs, r)
	})
	want := allPairsDiameter(g)
	if got != want {
		t.Fatalf("Diameter = %d, all-pairs oracle = %d (n=%d, edges=%v)", got, want, g.n, g.Edges())
	}
	if got := g.Diameter(); got != want {
		t.Fatalf("Diameter() = %d, all-pairs oracle = %d", got, want)
	}
	if len(sizes) != len(comps) {
		t.Fatalf("visited %d components, Components has %d", len(sizes), len(comps))
	}
	for i, c := range comps {
		if sizes[i] != len(c) {
			t.Fatalf("component %d: visit size %d, Components size %d", i, sizes[i], len(c))
		}
		if runs[i] < 1 || runs[i] > len(c) {
			t.Fatalf("component %d of %d nodes took %d BFS runs", i, len(c), runs[i])
		}
	}
}

func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	if n > 2 {
		g.AddEdge(n-1, 0)
	}
	return g
}

func starGraph(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

func cliqueGraph(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func gridGraph(w, h int) *Graph {
	g := New(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(y*w+x, y*w+x+1)
			}
			if y+1 < h {
				g.AddEdge(y*w+x, (y+1)*w+x)
			}
		}
	}
	return g
}

// uniformPositions places n points uniformly at random with unit minimum
// spacing in a square of side 4.4·√n: the geometry of the simulator's
// uniform deployments (cmd/sinrsim -topology uniform).
func uniformPositions(n int, seed uint64) []geom.Point {
	src := rng.New(seed)
	side := 4.4 * math.Sqrt(float64(n))
	grid := geom.NewGrid(1)
	pos := make([]geom.Point, 0, n)
	for len(pos) < n {
		p := geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
		ok := true
		for _, idx := range grid.Neighborhood(p, 1) {
			if pos[idx].Dist(p) < 1 {
				ok = false
				break
			}
		}
		if ok {
			grid.Insert(len(pos), p)
			pos = append(pos, p)
		}
	}
	return pos
}

// uniformStrong returns G_{1-ε} over uniformPositions(n, seed) at range 12,
// the simulator's default.
func uniformStrong(n int, seed uint64) *Graph {
	return Strong(sinr.DefaultParams(12), uniformPositions(n, seed))
}

func TestDiameterMatchesAllPairs(t *testing.T) {
	// Two components, the later (higher-numbered) one with the larger
	// diameter, plus isolated nodes between and after them.
	two := New(30)
	for i := 0; i < 4; i++ {
		two.AddEdge(i, i+1)
	}
	for i := 10; i < 25; i++ {
		two.AddEdge(i, i+1)
	}
	// A long path hung off a clique: the eccentric pair is far from the
	// low-id discovery root.
	lolli := New(40)
	for _, e := range cliqueGraph(30).Edges() {
		lolli.AddEdge(e[0], e[1])
	}
	for i := 30; i < 40; i++ {
		lolli.AddEdge(i-1, i)
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"empty", New(0)},
		{"single", New(1)},
		{"pair-isolated", New(2)},
		{"pair-edge", pathGraph(2)},
		{"path-17", pathGraph(17)},
		{"cycle-even-20", cycleGraph(20)},
		{"cycle-odd-21", cycleGraph(21)},
		{"star-30", starGraph(30)},
		{"clique-12", cliqueGraph(12)},
		{"grid-7x5", gridGraph(7, 5)},
		{"grid-1x9", gridGraph(1, 9)},
		{"two-components-later-larger", two},
		{"lollipop", lolli},
	} {
		t.Run(c.name, func(t *testing.T) { checkDiameter(t, c.g) })
	}

	t.Run("gnp", func(t *testing.T) {
		src := rng.New(20)
		for trial := 0; trial < 400; trial++ {
			n := src.Intn(81)
			// Mean degree from ~0 (mostly isolated nodes) to ~6.
			p := src.Float64() * 6 / float64(n+1)
			checkDiameter(t, randomGraph(n, p, src))
		}
	})

	t.Run("strong-uniform", func(t *testing.T) {
		for _, n := range []int{500, 2000} {
			for seed := uint64(1); seed <= 3; seed++ {
				checkDiameter(t, uniformStrong(n, seed))
			}
		}
	})
}

// decodeGraph turns fuzzer bytes into a graph: the first byte picks
// n = data[0] mod 65 and each following pair of bytes is an edge, both
// endpoints reduced mod n (self-loops and duplicates included).
func decodeGraph(data []byte) *Graph {
	if len(data) == 0 {
		return New(0)
	}
	n := int(data[0]) % 65
	g := New(n)
	if n == 0 {
		return g
	}
	for i := 1; i+1 < len(data); i += 2 {
		g.AddEdge(int(data[i])%n, int(data[i+1])%n)
	}
	return g
}

func FuzzDiameter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDiameter(t, decodeGraph(data))
	})
}

func TestHopDistOutOfRange(t *testing.T) {
	for _, tc := range []struct{ u, v, bad int }{{0, 5, 5}, {0, -1, -1}, {7, 0, 7}} {
		t.Run(fmt.Sprintf("%d-%d", tc.u, tc.v), func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				want := fmt.Sprintf("graphs: node %d out of range [0, 5)", tc.bad)
				if !strings.Contains(msg, want) {
					t.Fatalf("HopDist(%d, %d) panicked with %v, want %q", tc.u, tc.v, r, want)
				}
			}()
			pathGraph(5).HopDist(tc.u, tc.v)
		})
	}
}

// diamSink keeps benchmarked results live.
var diamSink int

// benchDiameter runs Diameter b.N times and reports the BFS runs per call.
func benchDiameter(b *testing.B, g *Graph) {
	runs := 0
	count := func(_, r int) { runs += r }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diamSink = g.diameter(count)
	}
	b.ReportMetric(float64(runs)/float64(b.N), "bfs/op")
}

func BenchmarkDiameterUniform8000(b *testing.B) {
	benchDiameter(b, uniformStrong(8000, 1))
}

// BenchmarkDiameterWorstCase pits Diameter against the all-pairs oracle on
// graphs where every node must be a BFS source.
func BenchmarkDiameterWorstCase(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"cycle4000", cycleGraph(4000)}, {"clique400", cliqueGraph(400)}} {
		b.Run(c.name+"/bounding", func(b *testing.B) { benchDiameter(b, c.g) })
		b.Run(c.name+"/allpairs", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				diamSink = allPairsDiameter(c.g)
			}
		})
	}
}
