// Package graphs provides the graph machinery the paper layers on top of
// the SINR model: generic undirected graphs with hop distances, diameters
// and neighbourhoods (Section 4.1; the diameter D, in which the paper states
// its global bounds, is computed exactly from a few bounded BFS sweeps
// rather than one BFS per node), SINR-induced strong-connectivity graphs
// G_a (Section 4.3), maximal-independent-set computations for
// growth-bounded graphs (used by Algorithm 9.1), and the Λ edge-length
// ratio.
//
// The SINR-induced graphs are built locally, as the paper analyses them:
// UnitDisk buckets the points into square cells about one radius wide and
// tests only pairs in the same or adjacent cells, so G_a costs
// O(n + candidate pairs), which is O(n·Δ) on deployments with unit minimum
// spacing, instead of n²/2 distance tests. Every candidate pair is decided
// by the exact predicate Dist ≤ a·R, and the cell side is chosen so that no
// pair passing it lies outside the walked cells (see UnitDisk).
package graphs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sinrmac/internal/geom"
	"sinrmac/internal/sinr"
)

// Graph is a simple undirected graph on nodes 0..n-1. Each node's
// neighbours are kept in one ascending slice: HasEdge is a binary search,
// AddEdge finds its slot (and rejects a duplicate) by binary search and
// inserts there, and BFS walks plain slices.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an empty graph with n nodes and no edges. It panics if n is
// negative.
func New(n int) *Graph {
	if n < 0 {
		panic("graphs: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate
// edges are ignored. It panics if either endpoint is out of range. It costs
// O(log deg + deg) per endpoint: a binary search, then the shift of the
// larger neighbours (none when edges arrive in ascending order).
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		return
	}
	i, found := slices.BinarySearch(g.adj[u], v)
	if found {
		return
	}
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graphs: node %d out of range [0, %d)", u, g.n))
	}
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// Neighbors returns the neighbours of u in ascending order. The returned
// slice is a copy.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, len(g.adj[u]))
	copy(out, g.adj[u])
	return out
}

// Degree returns the degree of u (excluding u itself, as in the paper's
// δ_G(v) definition).
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// MaxDegree returns Δ_G, the maximum degree over all nodes (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// bfsBuf is the scratch state of a breadth-first search: dist holds the hop
// distance from the last source (-1 for nodes it did not reach) and queue
// lists the nodes it reached, in BFS order. Successive searches share one
// buffer; each resets only the dist entries the previous one set.
type bfsBuf struct {
	dist  []int
	queue []int
}

func newBFSBuf(n int) *bfsBuf {
	b := &bfsBuf{dist: make([]int, n), queue: make([]int, 0, n)}
	for i := range b.dist {
		b.dist[i] = -1
	}
	return b
}

// bfs runs a breadth-first search from src into b and returns the
// eccentricity of src, the distance of the last node reached.
func (g *Graph) bfs(b *bfsBuf, src int) int {
	for _, u := range b.queue {
		b.dist[u] = -1
	}
	b.dist[src] = 0
	b.queue = append(b.queue[:0], src)
	for head := 0; head < len(b.queue); head++ {
		u := b.queue[head]
		next := b.dist[u] + 1
		for _, v := range g.adj[u] {
			if b.dist[v] < 0 {
				b.dist[v] = next
				b.queue = append(b.queue, v)
			}
		}
	}
	return b.dist[b.queue[len(b.queue)-1]]
}

// BFS returns the hop distance from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFS(src int) []int {
	g.check(src)
	b := newBFSBuf(g.n)
	g.bfs(b, src)
	return b.dist
}

// HopDist returns the hop distance between u and v, or -1 if v is
// unreachable from u. It panics if either node is out of range.
func (g *Graph) HopDist(u, v int) int {
	g.check(v)
	return g.BFS(u)[v]
}

// Eccentricity returns the largest finite hop distance from src to any
// reachable node.
func (g *Graph) Eccentricity(src int) int {
	g.check(src)
	return g.bfs(newBFSBuf(g.n), src)
}

// Diameter returns D_G, the maximum hop distance between any two nodes in
// the same connected component. For a graph with no edges it returns 0.
//
// The result is exact and deterministic. It comes from the
// bounding-eccentricities method of Takes and Kosters ("Determining the
// diameter of small world networks", CIKM 2011; the iFUB method of
// Crescenzi et al., TCS 2013, uses the same bounds), run per connected
// component. A BFS from v, whose eccentricity is e, tightens the
// eccentricity bounds of every node w of the component to
// lo[w] ≥ max(d(v,w), e−d(v,w)) and hi[w] ≤ e+d(v,w). The component's
// diameter lies between ΔL = max lo and ΔU = max hi, and the search stops
// when the two meet. The next source alternates between the candidate with
// the largest hi and the candidate with the smallest lo, ties going to the
// lowest node id. A node stops being a candidate once its eccentricity is
// known (lo = hi) or once it can move neither bound (hi ≤ ΔL and
// 2·lo ≥ ΔU). A source's own bounds meet, so no node is a source twice:
// the worst case is one BFS per node of the component, which cycles and
// cliques reach. On the uniform deployments the simulator runs, a handful
// of BFS runs suffice.
func (g *Graph) Diameter() int {
	return g.diameter(nil)
}

// diameter computes Diameter. When visit is non-nil it is called once per
// connected component, in order of smallest node, with the component's
// size and the number of BFS runs spent on it.
func (g *Graph) diameter(visit func(size, runs int)) int {
	b := newBFSBuf(g.n)
	lo := make([]int, g.n)
	hi := make([]int, g.n)
	seen := make([]bool, g.n)
	// cand has its own backing array: b.queue is rewritten by every BFS
	// and walked by the next one's reset.
	var cand []int
	diam := 0
	for root := 0; root < g.n; root++ {
		if seen[root] {
			continue
		}
		// The discovery BFS: its queue is the component, whose members start
		// from the trivial bounds 0 ≤ ecc < n.
		ecc := g.bfs(b, root)
		for _, w := range b.queue {
			seen[w] = true
			lo[w], hi[w] = 0, g.n
		}
		cand = append(cand[:0], b.queue...)
		runs := 1
		for maxHi := true; ; maxHi = !maxHi {
			// Every BFS reaches exactly the component, so b.queue lists it.
			dl, du := 0, 0
			for _, w := range b.queue {
				d := b.dist[w]
				lo[w] = max(lo[w], d, ecc-d)
				hi[w] = min(hi[w], ecc+d)
				dl = max(dl, lo[w])
				du = max(du, hi[w])
			}
			if dl == du {
				diam = max(diam, dl)
				break
			}
			// Prune and pick the next source in one pass. Some candidate
			// survives: were all pruned, every node would have hi ≤ ΔL.
			kept := cand[:0]
			src := -1
			for _, w := range cand {
				if lo[w] == hi[w] || hi[w] <= dl && 2*lo[w] >= du {
					continue
				}
				kept = append(kept, w)
				switch {
				case src < 0:
					src = w
				case maxHi && (hi[w] > hi[src] || hi[w] == hi[src] && w < src):
					src = w
				case !maxHi && (lo[w] < lo[src] || lo[w] == lo[src] && w < src):
					src = w
				}
			}
			cand = kept
			ecc = g.bfs(b, src)
			runs++
		}
		if visit != nil {
			visit(len(b.queue), runs)
		}
	}
	return diam
}

// IsConnected reports whether the graph is connected (the empty graph and
// single-node graph are considered connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	b := newBFSBuf(g.n)
	g.bfs(b, 0)
	return len(b.queue) == g.n
}

// Components returns the connected components as sorted node lists, ordered
// by their smallest node.
func (g *Graph) Components() [][]int {
	b := newBFSBuf(g.n)
	seen := make([]bool, g.n)
	var comps [][]int
	for u := 0; u < g.n; u++ {
		if seen[u] {
			continue
		}
		g.bfs(b, u)
		comp := append([]int(nil), b.queue...)
		for _, w := range comp {
			seen[w] = true
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// NeighborhoodR returns N_{G,r}(v): all nodes within hop distance r of v,
// including v itself, in ascending order.
func (g *Graph) NeighborhoodR(v, r int) []int {
	dist := g.BFS(v)
	var out []int
	for u, d := range dist {
		if d >= 0 && d <= r {
			out = append(out, u)
		}
	}
	return out
}

// NeighborhoodRSet returns N_{G,r}(W) for a set of nodes W: the union of
// the r-neighbourhoods of all nodes in W, in ascending order.
func (g *Graph) NeighborhoodRSet(w []int, r int) []int {
	seen := make(map[int]bool)
	for _, v := range w {
		for _, u := range g.NeighborhoodR(v, r) {
			seen[u] = true
		}
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// InducedSubgraph returns the subgraph G|S induced by the node set S,
// together with the mapping from new node index to original node id.
func (g *Graph) InducedSubgraph(s []int) (*Graph, []int) {
	nodes := append([]int(nil), s...)
	sort.Ints(nodes)
	// Deduplicate.
	nodes = dedupSorted(nodes)
	index := make(map[int]int, len(nodes))
	for i, v := range nodes {
		index[v] = i
	}
	// The renumbering is monotone, so each ascending neighbour list of g
	// maps to an ascending list of sub.
	sub := New(len(nodes))
	for i, v := range nodes {
		for _, w := range g.adj[v] {
			if j, ok := index[w]; ok {
				sub.adj[i] = append(sub.adj[i], j)
			}
		}
	}
	return sub, nodes
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	arena := make([]int, 0, 2*g.NumEdges())
	for u, a := range g.adj {
		lo := len(arena)
		arena = append(arena, a...)
		// Capped, so an AddEdge on one node reallocates rather than
		// overwriting the next node's list.
		c.adj[u] = arena[lo:len(arena):len(arena)]
	}
	return c
}

// Edges returns all edges (u < v) sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if v > u {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// UnitDisk returns the graph connecting every pair of points at Euclidean
// distance at most radius: u and v are adjacent iff
// pos[u].Dist(pos[v]) <= radius. A negative or NaN radius therefore yields
// no edges, radius 0 connects coincident points, and radius +Inf connects
// every pair at a non-NaN distance.
//
// Cost: O(n + candidate pairs). The points are bucketed into a
// geom.CellIndex of side c just above the radius, and each occupied cell is
// paired once with itself and once with each of four of its eight
// neighbours (the other four pair with it from their side), so every pair
// of points in the same or adjacent cells is a candidate exactly once, and
// the exact predicate decides it. With unit minimum spacing a cell holds
// O(c²) points, so there are O(n·Δ) candidates.
//
// Exactness: no pair passing the predicate lies outside adjacent cells.
// Dist(u, v) ≤ r for a finite r means the rounded coordinate difference dx
// obeys |dx| ≤ r·(1+2⁻⁵¹) (the square, the sum and the root each round by
// at most half an ulp), so the exact difference is at most ρ·(1+2⁻⁴⁹) with
// ρ = max(r, 2⁻⁴⁹⁰); the floor covers squares that underflow, r = 0
// included. A pair whose exact x-difference exceeds r while the subtraction
// rounds it to r, so that Dist = r, falls inside that slack. The cell side is c = max(ρ·(1+2⁻²⁰), 2⁻²⁸·M),
// where M is the largest finite coordinate magnitude, so every x/c is at
// most 2²⁸ and its computed value is within 2⁻²⁵ of the exact one. The
// computed cell coordinates of u and v then differ by less than
// (1+2⁻⁴⁹)/(1+2⁻²⁰) + 2⁻²⁴ < 1 before flooring, hence by at most one cell.
// A point with a NaN or infinite coordinate is at distance NaN or +Inf from
// every point, so it is bucketed at the origin: for a finite radius it has
// no edges, and for radius +Inf the side is +Inf and all points share one
// cell.
func UnitDisk(pos []geom.Point, radius float64) *Graph {
	g := New(len(pos))
	if len(pos) < 2 || !(radius >= 0) {
		return g
	}
	keys, cell := diskCells(pos, radius)
	ci := geom.NewCellIndex(keys, cell)
	var pairs []int32
	for c := range ci.NumCells() {
		home := ci.Nodes(c)
		for i, u := range home {
			pu := pos[u]
			for _, v := range home[i+1:] {
				if pu.Dist(pos[v]) <= radius {
					pairs = append(pairs, u, v)
				}
			}
		}
		cx, cy := ci.Coord(c)
		for _, off := range halfStencil {
			d := ci.CellAt(cx+off[0], cy+off[1])
			if d < 0 {
				continue
			}
			other := ci.Nodes(d)
			for _, u := range home {
				pu := pos[u]
				for _, v := range other {
					if pu.Dist(pos[v]) <= radius {
						pairs = append(pairs, u, v)
					}
				}
			}
		}
	}
	g.setEdges(pairs)
	return g
}

// halfStencil holds one offset of each ± pair of neighbour cells, so two
// adjacent cells meet exactly once in UnitDisk's walk.
var halfStencil = [4][2]int{{1, -1}, {1, 0}, {1, 1}, {0, 1}}

// diskCells returns the positions UnitDisk buckets by and the cell side,
// following the exactness argument on UnitDisk for radius ≥ 0.
func diskCells(pos []geom.Point, radius float64) ([]geom.Point, float64) {
	finite := func(p geom.Point) bool {
		return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64
	}
	var keys []geom.Point
	maxAbs := 0.0
	for i, p := range pos {
		if finite(p) {
			maxAbs = max(maxAbs, math.Abs(p.X), math.Abs(p.Y))
			continue
		}
		if keys == nil {
			keys = slices.Clone(pos)
		}
		keys[i] = geom.Point{}
	}
	if keys == nil {
		keys = pos
	}
	return keys, max(max(radius, 0x1p-490)*(1+0x1p-20), maxAbs*0x1p-28)
}

// setEdges fills the adjacency of an edgeless g from pairs, a flattened
// list of (u, v) node pairs holding each undirected edge once and no
// self-loop. It is a CSR build in O(n + edges): the edges are bucketed by
// endpoint, then transposed, and because the transpose visits sources in
// ascending order every neighbour list comes out ascending without a sort.
func (g *Graph) setEdges(pairs []int32) {
	start := make([]int, g.n+1)
	for _, u := range pairs {
		start[u+1]++
	}
	for u := range g.n {
		start[u+1] += start[u]
	}
	cursor := make([]int, g.n)
	copy(cursor, start)
	unsorted := make([]int32, len(pairs))
	for k := 0; k < len(pairs); k += 2 {
		u, v := pairs[k], pairs[k+1]
		unsorted[cursor[u]] = v
		cursor[u]++
		unsorted[cursor[v]] = u
		cursor[v]++
	}
	copy(cursor, start)
	arena := make([]int, len(pairs))
	for u := range g.n {
		for _, v := range unsorted[start[u]:start[u+1]] {
			arena[cursor[v]] = u
			cursor[v]++
		}
	}
	for u := range g.n {
		// Capped like Clone's lists.
		g.adj[u] = arena[start[u]:start[u+1]:start[u+1]]
	}
}

// Induced returns the SINR-induced graph G_a for the given deployment:
// nodes u, v are adjacent iff d(u, v) <= a·R where R is the transmission
// range implied by params (Section 4.3 of the paper).
func Induced(params sinr.Params, pos []geom.Point, a float64) *Graph {
	return UnitDisk(pos, params.RangeA(a))
}

// Strong returns G_{1-ε}, the reliable-communication graph.
func Strong(params sinr.Params, pos []geom.Point) *Graph {
	return Induced(params, pos, 1-params.Epsilon)
}

// Approx returns G_{1-2ε}, the graph in which approximate progress is
// measured.
func Approx(params sinr.Params, pos []geom.Point) *Graph {
	return Induced(params, pos, 1-2*params.Epsilon)
}

// Weak returns G₁, the weak-connectivity graph of all pairs within the full
// transmission range R.
func Weak(params sinr.Params, pos []geom.Point) *Graph {
	return Induced(params, pos, 1)
}

// EdgeLengthRatio returns Λ_G: the ratio between the longest and the
// shortest Euclidean edge length of g under the given positions. It returns
// 1 for graphs with no edges.
func EdgeLengthRatio(g *Graph, pos []geom.Point) float64 {
	minLen, maxLen := math.Inf(1), 0.0
	for _, e := range g.Edges() {
		d := pos[e[0]].Dist(pos[e[1]])
		if d < minLen {
			minLen = d
		}
		if d > maxLen {
			maxLen = d
		}
	}
	if maxLen == 0 || math.IsInf(minLen, 1) || minLen == 0 {
		return 1
	}
	return maxLen / minLen
}

// IsIndependent reports whether no two nodes of s are adjacent in g.
func (g *Graph) IsIndependent(s []int) bool {
	inSet := make(map[int]bool, len(s))
	for _, v := range s {
		inSet[v] = true
	}
	for _, v := range s {
		for _, w := range g.adj[v] {
			if inSet[w] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependent reports whether s is a maximal independent set of
// the nodes in domain: s must be independent, every node of domain must be
// in s or adjacent to a member of s.
func (g *Graph) IsMaximalIndependent(s, domain []int) bool {
	if !g.IsIndependent(s) {
		return false
	}
	inSet := make(map[int]bool, len(s))
	for _, v := range s {
		inSet[v] = true
	}
	for _, v := range domain {
		if inSet[v] {
			continue
		}
		covered := false
		for _, w := range g.adj[v] {
			if inSet[w] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// GreedyMIS returns the lexicographically-first maximal independent set of
// the nodes in domain (all nodes when domain is nil), considering nodes in
// ascending order. The result is sorted.
func (g *Graph) GreedyMIS(domain []int) []int {
	nodes := domain
	if nodes == nil {
		nodes = make([]int, g.n)
		for i := range nodes {
			nodes[i] = i
		}
	} else {
		nodes = append([]int(nil), nodes...)
		sort.Ints(nodes)
		nodes = dedupSorted(nodes)
	}
	inDomain := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inDomain[v] = true
	}
	blocked := make(map[int]bool)
	var mis []int
	for _, v := range nodes {
		if blocked[v] {
			continue
		}
		mis = append(mis, v)
		for _, w := range g.adj[v] {
			if inDomain[w] {
				blocked[w] = true
			}
		}
	}
	return mis
}

// LabelMIS computes a maximal independent set of the nodes in domain using
// the label-ordering rule of the ruler/competitor algorithm the paper
// adapts from Schneider–Wattenhofer [47]: a node joins the MIS when its
// label is a strict local minimum among undecided neighbours; ties are
// broken by node id. Labels need not be unique; with unique labels the
// result is a maximal independent set of domain.
//
// The returned set is sorted. This function models the *outcome* of the
// distributed MIS computation; the distributed simulation of it below the
// MAC layer lives in package approgress.
func (g *Graph) LabelMIS(domain []int, labels map[int]uint64) []int {
	nodes := append([]int(nil), domain...)
	sort.Ints(nodes)
	nodes = dedupSorted(nodes)
	inDomain := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inDomain[v] = true
	}
	undecided := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		undecided[v] = true
	}
	var mis []int
	inMIS := make(map[int]bool)
	for len(undecided) > 0 {
		progress := false
		// Collect undecided nodes in deterministic order.
		var rem []int
		for v := range undecided {
			rem = append(rem, v)
		}
		sort.Ints(rem)
		var joiners []int
		for _, v := range rem {
			lv := labels[v]
			isMin := true
			for _, w := range g.adj[v] {
				if !inDomain[w] || !undecided[w] {
					continue
				}
				lw := labels[w]
				if lw < lv || (lw == lv && w < v) {
					isMin = false
					break
				}
			}
			if isMin {
				joiners = append(joiners, v)
			}
		}
		for _, v := range joiners {
			if !undecided[v] {
				continue
			}
			// A neighbour may have joined in this same sweep; re-check.
			conflict := false
			for _, w := range g.adj[v] {
				if inMIS[w] {
					conflict = true
					break
				}
			}
			if conflict {
				delete(undecided, v)
				continue
			}
			mis = append(mis, v)
			inMIS[v] = true
			delete(undecided, v)
			progress = true
			for _, w := range g.adj[v] {
				if inDomain[w] {
					delete(undecided, w)
				}
			}
		}
		if !progress {
			// Can only happen with adversarial duplicate labels; fall back
			// to greedy completion to preserve maximality.
			for v := range undecided {
				rem = append(rem, v)
			}
			sort.Ints(rem)
			for _, v := range rem {
				if !undecided[v] {
					continue
				}
				conflict := false
				for _, w := range g.adj[v] {
					if inMIS[w] {
						conflict = true
						break
					}
				}
				if !conflict {
					mis = append(mis, v)
					inMIS[v] = true
				}
				delete(undecided, v)
			}
		}
	}
	sort.Ints(mis)
	return mis
}

// GrowthBound estimates the growth-bounding function f(r) of the paper's
// Definition 4.1 empirically: for each node it computes the size of a
// maximal independent set restricted to the r-neighbourhood and returns the
// maximum over all nodes.
func (g *Graph) GrowthBound(r int) int {
	max := 0
	for v := 0; v < g.n; v++ {
		hood := g.NeighborhoodR(v, r)
		if size := len(g.GreedyMIS(hood)); size > max {
			max = size
		}
	}
	return max
}
