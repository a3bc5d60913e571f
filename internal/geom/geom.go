// Package geom provides the planar geometry primitives the SINR simulator
// is built on: points, Euclidean distances, bounding boxes and a uniform
// grid index used to answer range queries and to bin nodes into annuli for
// interference accounting.
//
// The paper (Section 4.2) places nodes in the Euclidean plane and assumes a
// minimum pairwise distance of 1 (the near-field normalisation); helpers in
// this package enforce and verify that normalisation.
package geom

import (
	"fmt"
	"math"
	"sort"
)

// Point is a location in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q, computed as
// Sqrt(DistSq(p, q)).
//
// The composition through the squared distance is deliberate: Sqrt is a
// single hardware instruction where math.Hypot is a library call with
// branches and scaling, and every distance-derived quantity in the
// simulator (range queries, received powers, threshold comparisons) is
// then one monotone rounding away from the same squared-domain value, so
// d(p,q) < r exactly when DistSq(p,q) < r·r up to the documented grid
// slack. Deployment coordinates are bounded (no risk of dx² overflowing),
// which is the one case Hypot exists to handle.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root when only comparisons are needed.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// Sub returns p minus q.
func (p Point) Sub(q Point) Point {
	return Point{X: p.X - q.X, Y: p.Y - q.Y}
}

// Scale returns p scaled by factor s about the origin.
func (p Point) Scale(s float64) Point {
	return Point{X: p.X * s, Y: p.Y * s}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner and
// Max at the upper-right corner.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by two arbitrary corner points.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Expand returns r grown by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	return Rect{
		Min: Point{X: r.Min.X - margin, Y: r.Min.Y - margin},
		Max: Point{X: r.Max.X + margin, Y: r.Max.Y + margin},
	}
}

// BoundingBox returns the smallest axis-aligned rectangle containing all
// points. It returns a zero Rect when points is empty.
func BoundingBox(points []Point) Rect {
	if len(points) == 0 {
		return Rect{}
	}
	r := Rect{Min: points[0], Max: points[0]}
	for _, p := range points[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// MinPairwiseDist returns the smallest distance between two distinct points.
// It returns +Inf when fewer than two points are given.
//
// The implementation uses a uniform grid to avoid the quadratic scan for
// large inputs, falling back to brute force for small ones.
func MinPairwiseDist(points []Point) float64 {
	n := len(points)
	if n < 2 {
		return math.Inf(1)
	}
	if n <= 64 {
		return minPairwiseBrute(points)
	}
	// Grid with cell size roughly the expected nearest-neighbour spacing.
	box := BoundingBox(points)
	cell := math.Sqrt(box.Area()/float64(n)) + 1e-12
	if cell <= 0 || math.IsNaN(cell) {
		return minPairwiseBrute(points)
	}
	g := NewGrid(cell)
	for i, p := range points {
		g.Insert(i, p)
	}
	// Compare in the squared domain and take one root at the end: Sqrt is
	// monotone (x ≤ y ⟹ Sqrt(x) ≤ Sqrt(y) after rounding), so the minimum
	// commutes with the root and the result is bit-identical to minimising
	// Dist directly.
	//
	// Each query walks the 5×5 block of cells around p (AppendWithin at
	// radius 2·cell spans two cells each way) into one reused buffer. Only
	// pairs with DistSq ≤ cell² count as found: when one is, the minimum
	// over the looser ball is the same, since the extra pairs are all
	// farther; when none is, the points are sparse relative to the cell
	// size and the scan falls back to brute force.
	rr := cell * cell
	bestSq := math.Inf(1)
	var near []int
	for i, p := range points {
		near = g.AppendWithin(near[:0], p, 2*cell)
		for _, j := range near {
			if j == i {
				continue
			}
			if d2 := p.DistSq(points[j]); d2 < bestSq {
				bestSq = d2
			}
		}
	}
	if !(bestSq <= rr) {
		return minPairwiseBrute(points)
	}
	return math.Sqrt(bestSq)
}

func minPairwiseBrute(points []Point) float64 {
	bestSq := math.Inf(1)
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if d2 := points[i].DistSq(points[j]); d2 < bestSq {
				bestSq = d2
			}
		}
	}
	return math.Sqrt(bestSq)
}

// MaxPairwiseDist returns the largest distance between two points, or 0
// when fewer than two points are given.
func MaxPairwiseDist(points []Point) float64 {
	best := 0.0
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if d := points[i].Dist(points[j]); d > best {
				best = d
			}
		}
	}
	return best
}

// NormalizeMinDist rescales the points (about the origin) so that the
// minimum pairwise distance becomes exactly minDist. It returns the scale
// factor applied. Points are modified in place. If fewer than two points
// are supplied, or all points coincide, the slice is returned unchanged
// with scale 1.
func NormalizeMinDist(points []Point, minDist float64) float64 {
	cur := MinPairwiseDist(points)
	if math.IsInf(cur, 1) || cur == 0 {
		return 1
	}
	scale := minDist / cur
	for i := range points {
		points[i] = points[i].Scale(scale)
	}
	return scale
}

// cellKey identifies one cell of a Grid.
type cellKey struct {
	cx, cy int
}

// Grid is a uniform spatial hash over the plane with square cells. It
// supports insertion of indexed points and range queries, and is used both
// by topology generation (minimum-distance checks) and by interference
// accounting (annulus binning).
type Grid struct {
	cell  float64
	cells map[cellKey][]int
	pts   map[int]Point
}

// NewGrid returns an empty grid with the given cell side length. It panics
// if cell is not positive.
func NewGrid(cell float64) *Grid {
	if cell <= 0 || math.IsNaN(cell) {
		panic("geom: grid cell size must be positive")
	}
	return &Grid{
		cell:  cell,
		cells: make(map[cellKey][]int),
		pts:   make(map[int]Point),
	}
}

// CellSize returns the grid's cell side length.
func (g *Grid) CellSize() float64 { return g.cell }

// Len returns the number of points stored in the grid.
func (g *Grid) Len() int { return len(g.pts) }

func (g *Grid) keyFor(p Point) cellKey {
	return cellKey{
		cx: int(math.Floor(p.X / g.cell)),
		cy: int(math.Floor(p.Y / g.cell)),
	}
}

// Insert adds the point p with identifier id. Inserting the same id twice
// keeps both entries; callers are expected to use unique ids.
func (g *Grid) Insert(id int, p Point) {
	k := g.keyFor(p)
	g.cells[k] = append(g.cells[k], id)
	g.pts[id] = p
}

// Remove deletes the point with identifier id from the grid. Removing an
// unknown id is a no-op. The bucket entry is swap-removed, so the order of
// ids within a cell is not preserved; emptied buckets keep their map key
// (and slice capacity), which lets churn workloads that revisit the same
// cells update the grid without allocating.
func (g *Grid) Remove(id int) {
	p, ok := g.pts[id]
	if !ok {
		return
	}
	delete(g.pts, id)
	g.removeFromCell(g.keyFor(p), id)
}

// Move relocates the point with identifier id to p, preserving the no-alloc
// property of Remove when the destination bucket has capacity. Moving an
// unknown id inserts it.
func (g *Grid) Move(id int, p Point) {
	old, ok := g.pts[id]
	if !ok {
		g.Insert(id, p)
		return
	}
	g.pts[id] = p
	ko, kn := g.keyFor(old), g.keyFor(p)
	if ko == kn {
		return
	}
	g.removeFromCell(ko, id)
	g.cells[kn] = append(g.cells[kn], id)
}

// removeFromCell swap-removes id from the bucket of cell k.
func (g *Grid) removeFromCell(k cellKey, id int) {
	cell := g.cells[k]
	for i, cid := range cell {
		if cid == id {
			cell[i] = cell[len(cell)-1]
			g.cells[k] = cell[:len(cell)-1]
			return
		}
	}
}

// Neighborhood returns the ids of all points within radius r of p
// (inclusive). The result is sorted for determinism. Membership is decided
// in the squared domain (DistSq ≤ r²), the same predicate AnyWithin and
// AppendWithin evaluate, so every grid query in the package agrees on
// borderline points without ever taking a root.
func (g *Grid) Neighborhood(p Point, r float64) []int {
	if r < 0 {
		return nil
	}
	span := int(math.Ceil(r/g.cell)) + 1
	center := g.keyFor(p)
	rr := r * r
	var out []int
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			k := cellKey{cx: center.cx + dx, cy: center.cy + dy}
			for _, id := range g.cells[k] {
				if g.pts[id].DistSq(p) <= rr {
					out = append(out, id)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// AnyWithin reports whether any stored point q with Dist(p, q) <= r
// satisfies pred. Unlike Neighborhood it allocates nothing and stops at the
// first match, which makes it suitable for per-slot hot paths (the fast SINR
// evaluator uses it to cull receivers with no transmitter in range).
func (g *Grid) AnyWithin(p Point, r float64, pred func(id int) bool) bool {
	if r < 0 {
		return false
	}
	// A point within distance r of p lies in a cell whose coordinates differ
	// from p's cell by at most ceil(r/cell) in each axis.
	span := int(math.Ceil(r / g.cell))
	center := g.keyFor(p)
	rr := r * r
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			k := cellKey{cx: center.cx + dx, cy: center.cy + dy}
			for _, id := range g.cells[k] {
				if g.pts[id].DistSq(p) <= rr && pred(id) {
					return true
				}
			}
		}
	}
	return false
}

// AppendWithin appends to dst the ids of all stored points within distance
// r of p (inclusive) and returns the extended slice. Unlike Neighborhood it
// neither sorts nor allocates beyond growing dst, and the membership
// predicate (squared distance at most r²) is exactly the one AnyWithin
// evaluates, so the two queries agree on every borderline point. The append
// order follows the grid's deterministic cell walk, not id order; callers
// that need id order must sort. The sparse sender-centric SINR path uses it
// to enumerate the receivers inside each transmitter's ball with a reused
// candidate buffer.
func (g *Grid) AppendWithin(dst []int, p Point, r float64) []int {
	if r < 0 {
		return dst
	}
	span := int(math.Ceil(r / g.cell))
	center := g.keyFor(p)
	rr := r * r
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			k := cellKey{cx: center.cx + dx, cy: center.cy + dy}
			for _, id := range g.cells[k] {
				if g.pts[id].DistSq(p) <= rr {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// AnnulusCount returns how many stored points have distance d from p with
// inner < d <= outer. It is used by interference bounds that sum over rings
// around a receiver.
func (g *Grid) AnnulusCount(p Point, inner, outer float64) int {
	count := 0
	for _, id := range g.Neighborhood(p, outer) {
		d := g.pts[id].Dist(p)
		if d > inner && d <= outer {
			count++
		}
	}
	return count
}

// Points returns a copy of the stored points keyed by id.
func (g *Grid) Points() map[int]Point {
	out := make(map[int]Point, len(g.pts))
	for id, p := range g.pts {
		out[id] = p
	}
	return out
}
