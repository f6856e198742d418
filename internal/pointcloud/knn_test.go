package pointcloud

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"snaptask/internal/geom"
)

// naiveKNN is the O(n) per query reference: every distance, sorted, the k
// smallest kept.
func naiveKNN(pts []Point, i, k int) []float64 {
	var ds []float64
	for j := range pts {
		if j != i {
			ds = append(ds, pts[i].Pos.Dist(pts[j].Pos))
		}
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

// naiveSOR is StatisticalOutlierRemoval written directly from its
// definition on top of naiveKNN.
func naiveSOR(pts []Point, opts SOROptions) ([]Point, int) {
	opts = opts.withDefaults()
	n := len(pts)
	if n <= opts.K+1 {
		return append([]Point(nil), pts...), 0
	}
	means := make([]float64, n)
	var sum float64
	for i := range pts {
		var s float64
		ds := naiveKNN(pts, i, opts.K)
		for _, d := range ds {
			s += d
		}
		means[i] = s / float64(len(ds))
		sum += means[i]
	}
	mean := sum / float64(n)
	var varSum float64
	for _, d := range means {
		varSum += (d - mean) * (d - mean)
	}
	threshold := mean + opts.StdDevMul*math.Sqrt(varSum/float64(n))
	var out []Point
	for i, p := range pts {
		if means[i] <= threshold {
			out = append(out, p)
		}
	}
	return out, n - len(out)
}

// sameBits reports whether two distance lists are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samePoints reports whether two point lists are identical bit for bit.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if math.Float64bits(p.Pos.X) != math.Float64bits(q.Pos.X) ||
			math.Float64bits(p.Pos.Y) != math.Float64bits(q.Pos.Y) ||
			math.Float64bits(p.Pos.Z) != math.Float64bits(q.Pos.Z) ||
			p.FeatureID != q.FeatureID || p.Views != q.Views || p.Artificial != q.Artificial {
			return false
		}
	}
	return true
}

func pts3(ps ...geom.Vec3) []Point {
	out := make([]Point, len(ps))
	for i, p := range ps {
		out[i] = Point{Pos: p, FeatureID: uint64(i + 1)}
	}
	return out
}

// knnClouds are the shapes the grid search must stay exact on: each one
// aims at a way a ring-termination bound can go wrong.
func knnClouds(cellSize float64) map[string][]Point {
	rng := rand.New(rand.NewSource(31))
	clouds := map[string][]Point{}

	// Points on exact multiples of the cell size: many neighbours sit at
	// exactly ring·cellSize, and keys sit exactly on cell boundaries.
	var lattice []geom.Vec3
	for x := -3; x <= 3; x++ {
		for y := -3; y <= 3; y++ {
			for z := -2; z <= 2; z++ {
				if rng.Float64() < 0.6 {
					lattice = append(lattice, geom.V3(float64(x)*cellSize, float64(y)*cellSize, float64(z)*cellSize))
				}
			}
		}
	}
	clouds["lattice"] = pts3(lattice...)

	// The same lattice far from the origin, where x/cellSize rounds.
	var farLattice []geom.Vec3
	for _, p := range lattice {
		farLattice = append(farLattice, p.Add(geom.V3(1e5*cellSize, -3e4*cellSize, 7e3*cellSize)))
	}
	clouds["far-lattice"] = pts3(farLattice...)

	// Sparse random points straddling the origin: the k-th neighbour is
	// often further than one cell, in any direction.
	var sparse []geom.Vec3
	for i := 0; i < 300; i++ {
		sparse = append(sparse, geom.V3(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*3-1.5))
	}
	clouds["sparse-negative"] = pts3(sparse...)

	// Duplicate positions: zero distances, ties at every rank.
	var dups []geom.Vec3
	for i := 0; i < 40; i++ {
		p := geom.V3(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64())
		for r := 0; r < 1+rng.Intn(12); r++ {
			dups = append(dups, p)
		}
	}
	clouds["duplicates"] = pts3(dups...)

	// A dense cluster and isolated far outliers, whose searches give up
	// on rings and scan everything.
	var outliers []geom.Vec3
	for i := 0; i < 200; i++ {
		outliers = append(outliers, geom.V3(rng.Float64(), rng.Float64(), rng.Float64()))
	}
	for i := 0; i < 6; i++ {
		outliers = append(outliers, geom.V3(300*float64(i+1), -150, 40*float64(i)))
	}
	clouds["far-outliers"] = pts3(outliers...)

	// A dense thin wall, the shape SfM clouds of a venue mostly have.
	var wall []geom.Vec3
	for i := 0; i < 600; i++ {
		wall = append(wall, geom.V3(2+rng.NormFloat64()*0.01, rng.Float64()*10-5, rng.Float64()*2.5))
	}
	clouds["thin-wall"] = pts3(wall...)

	// Fewer points than k+1: every point is a neighbour of every other.
	clouds["tiny"] = pts3(sparse[:9]...)
	return clouds
}

// TestKNNMatchesNaive compares every grid kNN query against the naive
// sorted reference bit for bit, across cloud shapes, cell sizes and k up to
// and beyond n-1.
func TestKNNMatchesNaive(t *testing.T) {
	for _, cellSize := range []float64{0.5, 0.3} {
		for name, pts := range knnClouds(cellSize) {
			idx := newKNNIndex(pts, cellSize)
			for _, k := range []int{1, 2, 8, 12, len(pts) - 1, len(pts) + 3} {
				if k < 1 {
					continue
				}
				for i := range pts {
					got := idx.nearest(i, k)
					if want := naiveKNN(pts, i, k); !sameBits(got, want) {
						t.Fatalf("%s cell=%v k=%d i=%d: got %v, want %v", name, cellSize, k, i, got, want)
					}
				}
			}
		}
	}
}

// TestSORMatchesNaive checks the grid-indexed filter against the naive one
// on every cloud shape.
func TestSORMatchesNaive(t *testing.T) {
	for name, pts := range knnClouds(0.5) {
		for _, opts := range []SOROptions{{}, {K: 3, StdDevMul: 0.5}, {K: 8, CellSize: 0.3}} {
			got, gotRemoved, err := StatisticalOutlierRemoval(NewCloud(pts), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRemoved := naiveSOR(pts, opts)
			if gotRemoved != wantRemoved || !samePoints(got.Points(), want) {
				t.Fatalf("%s %+v: SOR removed %d, naive %d, or survivors differ", name, opts, gotRemoved, wantRemoved)
			}
		}
	}
}

// TestIncrementalSORAppendProperty grows random two-segment clouds through
// FilterAppend, some batches carrying far outliers, and checks every
// result against the full filter and the naive filter, bit for bit.
func TestIncrementalSORAppendProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := SOROptions{K: 1 + rng.Intn(10), StdDevMul: 0.5 + rng.Float64(), CellSize: 0.25 + rng.Float64()/2}
		inc, err := NewIncrementalSOR(opts)
		if err != nil {
			t.Fatal(err)
		}
		var segA, segB []Point
		id := uint64(1)
		for batch := 0; batch < 10; batch++ {
			nA, nB := rng.Intn(60), rng.Intn(5)
			for i := 0; i < nA; i++ {
				segA = append(segA, randPoint(rng, id))
				id++
			}
			for i := 0; i < nB; i++ {
				segB = append(segB, randPoint(rng, id))
				id++
			}
			if batch%3 == 2 {
				// Far outliers, alone in their cells.
				far := Point{Pos: geom.V3(200+rng.Float64()*50, -300*rng.Float64(), 80), FeatureID: id}
				id++
				segB = append(segB, far)
				nB++
			}
			c, split := buildTwoSegment(segA, segB)
			got, gotRemoved, err := inc.FilterAppend(c, split, nA, nB)
			if err != nil {
				t.Fatal(err)
			}
			full, fullRemoved, err := StatisticalOutlierRemoval(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			naive, naiveRemoved := naiveSOR(c.Points(), opts)
			if gotRemoved != fullRemoved || gotRemoved != naiveRemoved {
				t.Fatalf("seed %d batch %d: removed inc=%d full=%d naive=%d", seed, batch, gotRemoved, fullRemoved, naiveRemoved)
			}
			if !samePoints(got.Points(), full.Points()) || !samePoints(got.Points(), naive) {
				t.Fatalf("seed %d batch %d: survivors differ (n=%d)", seed, batch, c.Len())
			}
		}
	}
}

// TestExactRadiusGuard checks the termination radius sits strictly under
// ring·cellSize, by more as coordinates grow.
func TestExactRadiusGuard(t *testing.T) {
	if r := exactRadius(0, 0.5, 0); r != 0 {
		t.Errorf("ring 0 at the origin: radius %v, want 0", r)
	}
	prev := 0.0
	for _, mag := range []float64{0, 1, 1e3, 1e6} {
		r := exactRadius(2, 0.5, mag)
		if r >= 1 {
			t.Errorf("mag %v: radius %v not under 2 cells", mag, r)
		}
		if gap := 1 - r; gap <= prev {
			t.Errorf("mag %v: guard %v does not grow with magnitude", mag, gap)
		}
		prev = 1 - r
	}
}
