// Package topology generates node deployments in the Euclidean plane for
// simulations, experiments and benchmarks: uniform random deployments,
// grids, lines and clustered deployments, plus the two adversarial
// constructions used by the paper's lower bounds (the Theorem 6.1
// two-parallel-lines construction in Figure 1 and the Theorem 8.1 two-balls
// construction).
//
// Every deployment carries its SINR parameters; nodes are always at least
// unit distance apart (the paper's near-field normalisation).
//
// Deployments are dynamic: the epoch API (epoch.go) batches node
// additions, removals and moves into atomically committed epochs that
// preserve the unit-distance invariant, invalidate the cached derived
// quantities and emit sinr.EpochDelta values downstream evaluators and
// engines apply incrementally.
package topology

import (
	"fmt"
	"math"
	"sync"

	"sinrmac/internal/geom"
	"sinrmac/internal/graphs"
	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// Deployment is a set of node positions with the physical-layer parameters
// they are intended to be simulated under. Derived quantities that are
// expensive to induce (the strong, approximation and weak graphs, Λ) are
// computed once and cached, which lets many concurrent trials share one
// deployment without repaying the induction per trial.
//
// Positions are immutable except through the epoch API (epoch.go): AddNode,
// RemoveNode and MoveNode batch mutations that CommitEpoch applies
// atomically, revalidating the unit-distance invariant and invalidating
// every cached derived quantity. Committing an epoch must not race with
// concurrent readers of the deployment; between epochs concurrent use stays
// safe.
type Deployment struct {
	// Name identifies the generator and parameters for reports.
	Name string
	// Positions holds the node locations; node i is at Positions[i].
	Positions []geom.Point
	// Params are the SINR parameters for this deployment.
	Params sinr.Params

	// cacheMu guards the lazily induced derived quantities below. A plain
	// mutex (rather than per-field sync.Once) lets CommitEpoch drop every
	// cache in one critical section when the positions change.
	cacheMu  sync.Mutex
	strong   *graphs.Graph
	approx   *graphs.Graph
	weak     *graphs.Graph
	lambda   float64
	lambdaOK bool

	pending []epochOp
	epochs  int
}

// NumNodes returns the number of nodes in the deployment.
func (d *Deployment) NumNodes() int { return len(d.Positions) }

// StrongGraph returns G_{1-ε} for the deployment. The graph is induced on
// first use, by graphs.UnitDisk's O(n·Δ) cell walk, and cached —
// experiments query the diameter and maximum degree of a shared deployment
// from many concurrent trials — so callers must treat the returned graph
// as read-only. It is safe for concurrent use.
func (d *Deployment) StrongGraph() *graphs.Graph {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if d.strong == nil {
		d.strong = graphs.Strong(d.Params, d.Positions)
	}
	return d.strong
}

// ApproxGraph returns G_{1-2ε} for the deployment. Like StrongGraph it is
// induced on first use (an O(n·Δ) cell walk, see graphs.UnitDisk) and
// cached, so concurrent trials sharing one deployment do not repay the
// induction, and callers must treat the returned graph as read-only. It is
// safe for concurrent use.
func (d *Deployment) ApproxGraph() *graphs.Graph {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if d.approx == nil {
		d.approx = graphs.Approx(d.Params, d.Positions)
	}
	return d.approx
}

// WeakGraph returns G₁ for the deployment, induced on first use and cached
// exactly like StrongGraph and ApproxGraph; the returned graph is read-only
// and safe for concurrent use.
func (d *Deployment) WeakGraph() *graphs.Graph {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if d.weak == nil {
		d.weak = graphs.Weak(d.Params, d.Positions)
	}
	return d.weak
}

// Lambda returns Λ = R_{1-ε}/dmin for the deployment, computed once and
// cached (the minimum pairwise distance scan is quadratic for small
// deployments). It is safe for concurrent use.
func (d *Deployment) Lambda() float64 {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if !d.lambdaOK {
		d.lambda = sinr.Lambda(d.Params, d.Positions)
		d.lambdaOK = true
	}
	return d.lambda
}

// Channel returns a fresh SINR channel for the deployment.
func (d *Deployment) Channel() (*sinr.Channel, error) {
	return sinr.NewChannel(d.Params, d.Positions)
}

// Validate checks the structural assumptions the paper's algorithms rely
// on: valid SINR parameters, minimum pairwise distance of at least 1, and
// (when requireConnected is set) connectivity of G_{1-ε}.
func (d *Deployment) Validate(requireConnected bool) error {
	if err := d.Params.Validate(); err != nil {
		return err
	}
	if len(d.Positions) == 0 {
		return fmt.Errorf("topology: deployment %q has no nodes", d.Name)
	}
	if dmin := geom.MinPairwiseDist(d.Positions); dmin < 1-1e-9 {
		return fmt.Errorf("topology: deployment %q violates the near-field bound: min distance %v < 1", d.Name, dmin)
	}
	if requireConnected && !d.StrongGraph().IsConnected() {
		return fmt.Errorf("topology: deployment %q has a disconnected strong graph G_{1-ε}", d.Name)
	}
	return nil
}

// UniformRandom places n nodes uniformly at random in a side×side square,
// rejecting candidate positions closer than unit distance to an existing
// node. It returns an error when the square cannot plausibly hold n nodes
// at unit spacing or when the rejection sampling fails to find room.
func UniformRandom(n int, side float64, params sinr.Params, src *rng.Source) (*Deployment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: UniformRandom needs a positive node count, got %d", n)
	}
	if float64(n) > side*side {
		return nil, fmt.Errorf("topology: %d nodes cannot keep unit spacing in a %.1f×%.1f square", n, side, side)
	}
	grid := geom.NewGrid(1)
	pos := make([]geom.Point, 0, n)
	const maxAttemptsPerNode = 2000
	for len(pos) < n {
		placed := false
		for attempt := 0; attempt < maxAttemptsPerNode; attempt++ {
			cand := geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
			if !tooClose(grid, pos, cand) {
				grid.Insert(len(pos), cand)
				pos = append(pos, cand)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("topology: could not place node %d of %d with unit spacing in a %.1f×%.1f square", len(pos)+1, n, side, side)
		}
	}
	return &Deployment{
		Name:      fmt.Sprintf("uniform(n=%d,side=%.0f)", n, side),
		Positions: pos,
		Params:    params,
	}, nil
}

// tooClose reports whether a node of pos, indexed by grid (cell side 1),
// lies at distance below 1 from p: the rejection test of the generators
// that keep unit spacing. It allocates nothing and stops at the first hit.
// Walking only the 3×3 cells around p misses nothing: Dist < 1 forces the
// exact coordinate differences below 1 (a difference of 1 or more rounds
// to at least 1), and a unit cell's coordinate is an exact floor.
func tooClose(grid *geom.Grid, pos []geom.Point, p geom.Point) bool {
	return grid.AnyWithin(p, 1, func(idx int) bool { return pos[idx].Dist(p) < 1 })
}

// ConnectedUniform repeatedly draws uniform random deployments until the
// strong-connectivity graph G_{1-ε} is connected, up to maxTries attempts.
func ConnectedUniform(n int, side float64, params sinr.Params, src *rng.Source, maxTries int) (*Deployment, error) {
	if maxTries <= 0 {
		maxTries = 50
	}
	var lastErr error
	for try := 0; try < maxTries; try++ {
		d, err := UniformRandom(n, side, params, src.Split())
		if err != nil {
			lastErr = err
			continue
		}
		if d.StrongGraph().IsConnected() {
			return d, nil
		}
		lastErr = fmt.Errorf("topology: deployment disconnected on try %d", try+1)
	}
	return nil, fmt.Errorf("topology: no connected uniform deployment after %d tries: %w", maxTries, lastErr)
}

// Grid places rows×cols nodes on a regular lattice with the given spacing
// (spacing must be at least 1).
func Grid(rows, cols int, spacing float64, params sinr.Params) (*Deployment, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topology: Grid dimensions must be positive, got %dx%d", rows, cols)
	}
	if spacing < 1 {
		return nil, fmt.Errorf("topology: Grid spacing %v violates unit minimum distance", spacing)
	}
	pos := make([]geom.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos = append(pos, geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return &Deployment{
		Name:      fmt.Sprintf("grid(%dx%d,spacing=%.1f)", rows, cols, spacing),
		Positions: pos,
		Params:    params,
	}, nil
}

// Line places n nodes on a horizontal line with the given spacing
// (spacing must be at least 1). Line deployments maximise the diameter for
// a given node count and are used by the consensus and SMB experiments.
func Line(n int, spacing float64, params sinr.Params) (*Deployment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: Line needs a positive node count, got %d", n)
	}
	if spacing < 1 {
		return nil, fmt.Errorf("topology: Line spacing %v violates unit minimum distance", spacing)
	}
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i) * spacing, Y: 0}
	}
	return &Deployment{
		Name:      fmt.Sprintf("line(n=%d,spacing=%.1f)", n, spacing),
		Positions: pos,
		Params:    params,
	}, nil
}

// Clusters places numClusters cluster centers far apart on a line (at
// strong-range spacing so consecutive clusters remain connected) and fills
// each cluster with clusterSize nodes packed at unit-ish spacing inside a
// small disc. Clustered deployments create high local degree Δ while
// keeping the diameter moderate; they are the workload where approximate
// progress shines over acknowledgments.
func Clusters(numClusters, clusterSize int, params sinr.Params, src *rng.Source) (*Deployment, error) {
	if numClusters <= 0 || clusterSize <= 0 {
		return nil, fmt.Errorf("topology: Clusters needs positive sizes, got %d clusters of %d", numClusters, clusterSize)
	}
	strong := params.StrongRange()
	// Cluster radius: small relative to the strong range but large enough
	// to hold clusterSize nodes at unit spacing.
	radius := math.Max(2, 1.2*math.Sqrt(float64(clusterSize)))
	if 2*radius >= strong {
		return nil, fmt.Errorf("topology: cluster of %d nodes needs radius %.1f, which does not fit inside strong range %.1f", clusterSize, radius, strong)
	}
	spacing := strong - 2*radius // gap between cluster discs stays connected
	if spacing < 1 {
		spacing = 1
	}
	grid := geom.NewGrid(1)
	var pos []geom.Point
	for c := 0; c < numClusters; c++ {
		center := geom.Point{X: float64(c) * (spacing + 2*radius), Y: 0}
		placedInCluster := 0
		attempts := 0
		for placedInCluster < clusterSize {
			attempts++
			if attempts > clusterSize*5000 {
				return nil, fmt.Errorf("topology: could not pack %d nodes into cluster %d", clusterSize, c)
			}
			angle := src.Float64() * 2 * math.Pi
			r := radius * math.Sqrt(src.Float64())
			cand := geom.Point{X: center.X + r*math.Cos(angle), Y: center.Y + r*math.Sin(angle)}
			if !tooClose(grid, pos, cand) {
				grid.Insert(len(pos), cand)
				pos = append(pos, cand)
				placedInCluster++
			}
		}
	}
	return &Deployment{
		Name:      fmt.Sprintf("clusters(%dx%d)", numClusters, clusterSize),
		Positions: pos,
		Params:    params,
	}, nil
}

// ParallelLines builds the Theorem 6.1 / Figure 1 lower-bound construction:
// delta nodes V on one horizontal line with unit spacing, delta nodes U on a
// parallel line at vertical distance exactly R_{1-ε}, so that v_i's only
// strong neighbour across the gap is u_i. The SINR parameters are chosen so
// that R_{1-ε} = 10·delta, exactly as in the paper's proof.
func ParallelLines(delta int, epsilon float64) (*Deployment, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("topology: ParallelLines needs a positive degree, got %d", delta)
	}
	if epsilon <= 0 || epsilon >= 0.5 {
		return nil, fmt.Errorf("topology: epsilon %v out of range (0, 0.5)", epsilon)
	}
	strongRange := 10 * float64(delta)
	params := sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1, Epsilon: epsilon}
	// R = strongRange/(1-ε), P = βN R^α. The tiny inflation of P guards the
	// cross-line links (at distance exactly R_{1-ε}) against floating-point
	// rounding when the range is recovered from the power.
	r := strongRange / (1 - epsilon)
	params.Power = params.Beta * params.Noise * math.Pow(r, params.Alpha) * (1 + 1e-9)

	pos := make([]geom.Point, 0, 2*delta)
	// V nodes: indices 0..delta-1 on the lower line.
	for i := 0; i < delta; i++ {
		pos = append(pos, geom.Point{X: float64(i), Y: 0})
	}
	// U nodes: indices delta..2delta-1 on the upper line.
	for i := 0; i < delta; i++ {
		pos = append(pos, geom.Point{X: float64(i), Y: strongRange})
	}
	return &Deployment{
		Name:      fmt.Sprintf("parallel-lines(delta=%d)", delta),
		Positions: pos,
		Params:    params,
	}, nil
}

// ParallelLinesSender returns the V-side (sender) indices of a
// ParallelLines deployment with the given delta.
func ParallelLinesSenders(delta int) []int {
	out := make([]int, delta)
	for i := range out {
		out[i] = i
	}
	return out
}

// ParallelLinesReceivers returns the U-side (receiver) indices of a
// ParallelLines deployment with the given delta.
func ParallelLinesReceivers(delta int) []int {
	out := make([]int, delta)
	for i := range out {
		out[i] = delta + i
	}
	return out
}

// TwoBalls builds the Theorem 8.1 construction on which the Decay strategy
// fails to achieve fast approximate progress: a ball B1 containing two
// nodes and a dense ball B2 containing delta nodes, both of radius R/4,
// with ball centers at distance R_2 = 2R so that the balls are not directly
// connected in G_{1-ε}, connected through a sparse bridging path so that
// G_{1-ε} stays connected. Node 0 and node 1 form B1 (placed at opposite
// ends of B1's diameter); nodes 2..delta+1 form B2; the remaining nodes are
// the bridge relays.
func TwoBalls(delta int, params sinr.Params, src *rng.Source) (*Deployment, error) {
	if delta < 2 {
		return nil, fmt.Errorf("topology: TwoBalls needs delta >= 2, got %d", delta)
	}
	r := params.Range()
	ballRadius := r / 4
	centerDist := 2 * r
	// B2 must hold delta nodes at unit spacing inside radius ballRadius.
	if needed := 1.2 * math.Sqrt(float64(delta)); needed > ballRadius {
		return nil, fmt.Errorf("topology: ball radius %.1f too small for %d nodes; increase the transmission range", ballRadius, delta)
	}
	c1 := geom.Point{X: 0, Y: 0}
	c2 := geom.Point{X: centerDist, Y: 0}

	grid := geom.NewGrid(1)
	var pos []geom.Point
	add := func(p geom.Point) bool {
		if tooClose(grid, pos, p) {
			return false
		}
		grid.Insert(len(pos), p)
		pos = append(pos, p)
		return true
	}
	// B1: two nodes at the ends of B1's horizontal diameter, so the signal
	// between them is as weak as the construction allows (distance R/2).
	if !add(geom.Point{X: c1.X - ballRadius, Y: 0}) || !add(geom.Point{X: c1.X + ballRadius, Y: 0}) {
		return nil, fmt.Errorf("topology: could not place B1 nodes")
	}
	// B2: delta nodes packed around c2.
	placed := 0
	attempts := 0
	for placed < delta {
		attempts++
		if attempts > delta*5000 {
			return nil, fmt.Errorf("topology: could not pack %d nodes into B2", delta)
		}
		angle := src.Float64() * 2 * math.Pi
		rr := ballRadius * math.Sqrt(src.Float64())
		if add(geom.Point{X: c2.X + rr*math.Cos(angle), Y: c2.Y + rr*math.Sin(angle)}) {
			placed++
		}
	}
	// Bridge: a chain of relays between the balls so that G_{1-ε} is
	// connected (the paper connects the balls by a path). Consecutive hops
	// stay within 0.8·R_{1-ε}.
	hop := 0.8 * params.StrongRange()
	startX := c1.X + ballRadius
	endX := c2.X - ballRadius
	for x := startX + hop; x < endX; x += hop {
		if !add(geom.Point{X: x, Y: 2.5}) {
			return nil, fmt.Errorf("topology: could not place bridge relay at x=%.1f", x)
		}
	}
	return &Deployment{
		Name:      fmt.Sprintf("two-balls(delta=%d)", delta),
		Positions: pos,
		Params:    params,
	}, nil
}

// TwoBallsB1 returns the node indices of ball B1 in a TwoBalls deployment.
func TwoBallsB1() []int { return []int{0, 1} }

// TwoBallsB2 returns the node indices of ball B2 in a TwoBalls deployment
// with the given delta.
func TwoBallsB2(delta int) []int {
	out := make([]int, delta)
	for i := range out {
		out[i] = 2 + i
	}
	return out
}
