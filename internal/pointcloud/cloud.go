// Package pointcloud provides the 3D point-cloud container produced by the
// SfM pipeline, a grid-accelerated k-nearest-neighbour index, and the
// statistical outlier removal (SOR) filter SnapTask applies to every freshly
// reconstructed model (Algorithm 1, line 2). The filter follows the classic
// PCL formulation: compute each point's mean distance to its k nearest
// neighbours, then discard points whose mean distance exceeds the global
// mean by more than stddevMul standard deviations.
package pointcloud

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"snaptask/internal/geom"
)

// Point is one reconstructed 3D point. Source tags where it came from so the
// featureless-surface pipeline can separate artificially textured points
// from natural ones later, as the paper notes ("since we use distinctive
// colors, it is easy to locate the artificial points later on").
type Point struct {
	Pos geom.Vec3
	// FeatureID is the identifier of the scene feature this point
	// reconstructs, 0 for synthetic/outlier points.
	FeatureID uint64
	// Views is the number of registered camera views observing the point.
	Views int
	// Artificial marks points reconstructed from imprinted textures on
	// annotated featureless surfaces.
	Artificial bool
}

// Cloud is an ordered collection of points. The zero value is an empty,
// usable cloud. Cloud is not safe for concurrent mutation.
type Cloud struct {
	pts []Point
}

// NewCloud returns a cloud initialised with the given points (copied).
func NewCloud(pts []Point) *Cloud {
	c := &Cloud{pts: make([]Point, len(pts))}
	copy(c.pts, pts)
	return c
}

// Wrap returns a cloud that takes ownership of the given slice without
// copying it; the caller must not use the slice afterwards.
func Wrap(pts []Point) *Cloud {
	return &Cloud{pts: pts}
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.pts) }

// At returns the i-th point.
func (c *Cloud) At(i int) Point { return c.pts[i] }

// Add appends a point.
func (c *Cloud) Add(p Point) { c.pts = append(c.pts, p) }

// Points returns a copy of the underlying points.
func (c *Cloud) Points() []Point {
	out := make([]Point, len(c.pts))
	copy(out, c.pts)
	return out
}

// Each calls fn for every point in order.
func (c *Cloud) Each(fn func(p Point)) {
	for _, p := range c.pts {
		fn(p)
	}
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud { return NewCloud(c.pts) }

// Merge appends all points of o to c.
func (c *Cloud) Merge(o *Cloud) {
	c.pts = append(c.pts, o.pts...)
}

// Bounds2D returns the floor-plane bounding box of the cloud.
func (c *Cloud) Bounds2D() geom.AABB {
	b := geom.EmptyAABB()
	for _, p := range c.pts {
		b = b.AddPoint(p.Pos.XY())
	}
	return b
}

// CountArtificial returns how many points carry the Artificial mark.
func (c *Cloud) CountArtificial() int {
	n := 0
	for _, p := range c.pts {
		if p.Artificial {
			n++
		}
	}
	return n
}

// knnIndex is a uniform-grid spatial hash over the points of a cloud used to
// answer exact kNN queries in roughly O(k) per query for well-distributed
// clouds.
type knnIndex struct {
	cellSize float64
	cells    map[[3]int][]int
	pts      []Point
}

func newKNNIndex(pts []Point, cellSize float64) *knnIndex {
	idx := &knnIndex{
		cellSize: cellSize,
		cells:    make(map[[3]int][]int, len(pts)/2+1),
		pts:      pts,
	}
	for i, p := range pts {
		k := idx.key(p.Pos)
		idx.cells[k] = append(idx.cells[k], i)
	}
	return idx
}

// insert appends a point to the index and returns its index. The search
// structures stay valid because points never move once inserted.
func (idx *knnIndex) insert(p Point) int {
	i := len(idx.pts)
	idx.pts = append(idx.pts, p)
	k := idx.key(p.Pos)
	idx.cells[k] = append(idx.cells[k], i)
	return i
}

func (idx *knnIndex) key(p geom.Vec3) [3]int {
	return [3]int{
		int(math.Floor(p.X / idx.cellSize)),
		int(math.Floor(p.Y / idx.cellSize)),
		int(math.Floor(p.Z / idx.cellSize)),
	}
}

// nearest returns the distances to the k nearest neighbours of point i
// (excluding itself) in ascending order, expanding the search ring until
// the k-th distance is provably exact. Only the k best candidates are kept,
// in an ascending buffer, so a query costs O(candidates · k) comparisons
// and no sort.
func (idx *knnIndex) nearest(i, k int) []float64 {
	if k <= 0 {
		return nil
	}
	center := idx.pts[i].Pos
	ck := idx.key(center)
	mag := math.Max(math.Abs(center.X), math.Max(math.Abs(center.Y), math.Abs(center.Z)))
	best := make([]float64, 0, k)
	seen := 0
	for ring := 0; ; ring++ {
		// Once the search shell is larger than the number of occupied
		// cells, scanning every point directly is cheaper than walking
		// empty shells (isolated outliers would otherwise force huge
		// ring expansions).
		if shell := 2*ring + 1; shell*shell*shell > 4*len(idx.cells)+64 {
			return idx.brute(i, k)
		}
		// Visit all points in cells on the Chebyshev shell of radius
		// `ring` around the query cell.
		for dx := -ring; dx <= ring; dx++ {
			for dy := -ring; dy <= ring; dy++ {
				for dz := -ring; dz <= ring; dz++ {
					if maxAbs3(dx, dy, dz) != ring {
						continue // only the new shell
					}
					key := [3]int{ck[0] + dx, ck[1] + dy, ck[2] + dz}
					for _, j := range idx.cells[key] {
						if j == i {
							continue
						}
						seen++
						best = pushBest(best, k, center.Dist(idx.pts[j].Pos))
					}
				}
			}
		}
		if len(best) == k && best[k-1] <= exactRadius(ring, idx.cellSize, mag) {
			return best
		}
		// Terminate once the whole cloud has been swept.
		if seen == len(idx.pts)-1 {
			return best
		}
	}
}

// exactRadius returns a distance R such that, once rings 0..ring around the
// query's cell have been swept, every point not yet seen has a computed
// distance of at least R. A k-th best distance <= R is therefore final:
// whatever is left cannot displace it, and a tie leaves the values equal.
//
// Proof. Write s for the cell size, u = 2^-53 for the unit roundoff, q for
// the query and p for an unseen point. Being unseen, p's cell lies outside
// the swept cube, so on some axis its key exceeds the query's by at least
// ring+1 (the other sign is symmetric). Keys are floor(fl(x/s)) and
// fl(x/s) = (x/s)(1+e) with |e| <= u, so
//
//	p(1+e1)/s >= key(p) >= key(q)+ring+1 > q(1+e2)/s + ring,
//
// hence p-q > ring·s - (|p|+|q|)·u on that axis. Without rounding this is
// the familiar bound: every point closer than ring·s has been seen. The
// computed Dist (a subtraction, three squares, two adds and a square root)
// is at least (1-4u) times the true axis gap, and only points with
// |p-q| < ring·s matter, where |p| <= |q|+ring·s(1+5u). Together the
// computed distance of p exceeds ring·s - (2|q|+6·ring·s)·u, and the
// guard (|q|+ring·s)·2^-48 = 32u·(|q|+ring·s) covers that deficit, plus
// the rounding of the guard arithmetic itself, with room to spare. |q| is
// the query's largest absolute coordinate.
func exactRadius(ring int, cellSize, mag float64) float64 {
	reach := float64(ring) * cellSize
	return reach - (mag+reach)*0x1p-48
}

// pushBest inserts d into best, an ascending buffer of the at most k
// smallest values seen so far, and returns the updated buffer. best must
// have capacity k.
func pushBest(best []float64, k int, d float64) []float64 {
	n := len(best)
	if n == k {
		if d >= best[k-1] {
			return best
		}
		n-- // the current largest falls off the end
	} else {
		best = best[:n+1]
	}
	for n > 0 && best[n-1] > d {
		best[n] = best[n-1]
		n--
	}
	best[n] = d
	return best
}

// brute returns the exact k nearest distances by scanning every point.
func (idx *knnIndex) brute(i, k int) []float64 {
	best := make([]float64, 0, k)
	center := idx.pts[i].Pos
	for j := range idx.pts {
		if j == i {
			continue
		}
		best = pushBest(best, k, center.Dist(idx.pts[j].Pos))
	}
	return best
}

func maxAbs3(a, b, c int) int {
	m := a
	if a < 0 {
		m = -a
	}
	if b < 0 {
		b = -b
	}
	if c < 0 {
		c = -c
	}
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

// SOROptions configures StatisticalOutlierRemoval.
type SOROptions struct {
	// K is the number of nearest neighbours examined per point.
	// Defaults to 8.
	K int
	// StdDevMul is the standard-deviation multiplier of the distance
	// threshold. Defaults to 1.0 (PCL's common setting for sparse
	// SfM clouds).
	StdDevMul float64
	// CellSize is the spatial-hash resolution in metres. Defaults to
	// 0.5 m, appropriate for room-scale clouds.
	CellSize float64
}

func (o SOROptions) withDefaults() SOROptions {
	if o.K == 0 {
		o.K = 8
	}
	if o.StdDevMul == 0 {
		o.StdDevMul = 1.0
	}
	if o.CellSize == 0 {
		o.CellSize = 0.5
	}
	return o
}

// StatisticalOutlierRemoval returns a new cloud with statistical outliers
// removed, along with the number of points discarded. Clouds with at most
// K+1 points are returned unchanged (no meaningful statistics exist).
func StatisticalOutlierRemoval(c *Cloud, opts SOROptions) (*Cloud, int, error) {
	opts = opts.withDefaults()
	if opts.K < 1 {
		return nil, 0, fmt.Errorf("pointcloud: SOR K=%d must be >= 1", opts.K)
	}
	if opts.StdDevMul < 0 {
		return nil, 0, fmt.Errorf("pointcloud: SOR StdDevMul=%v must be >= 0", opts.StdDevMul)
	}
	n := c.Len()
	if n <= opts.K+1 {
		return c.Clone(), 0, nil
	}

	idx := newKNNIndex(c.pts, opts.CellSize)
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	meanDists := make([]float64, n)
	parallelMeanKNN(idx, opts.K, targets, meanDists, nil)
	var sum float64
	for _, d := range meanDists {
		sum += d
	}
	mean := sum / float64(n)
	var varSum float64
	for _, d := range meanDists {
		varSum += (d - mean) * (d - mean)
	}
	std := math.Sqrt(varSum / float64(n))
	threshold := mean + opts.StdDevMul*std

	out := &Cloud{pts: make([]Point, 0, n)}
	removed := 0
	for i, p := range c.pts {
		if meanDists[i] <= threshold {
			out.pts = append(out.pts, p)
		} else {
			removed++
		}
	}
	return out, removed, nil
}

// parallelMeanKNN computes, for each index in targets, the mean distance to
// its k nearest neighbours (written to meanDists[i]) and, when kth is
// non-nil, the k-th nearest distance itself (written to kth[i]). Work is
// fanned across runtime.GOMAXPROCS(0) goroutines; each target writes only
// its own slots, so results are deterministic regardless of scheduling.
// Distances returned by nearest are ascending, which fixes the float
// summation order and keeps the result bit-identical to a serial
// computation.
func parallelMeanKNN(idx *knnIndex, k int, targets []int, meanDists, kth []float64) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(targets) {
					return
				}
				i := targets[t]
				ds := idx.nearest(i, k)
				var s float64
				for _, d := range ds {
					s += d
				}
				meanDists[i] = s / float64(len(ds))
				if kth != nil {
					kth[i] = ds[len(ds)-1]
				}
			}
		}()
	}
	wg.Wait()
}
