package pointcloud

import (
	"math/rand"
	"testing"

	"snaptask/internal/geom"
)

func TestCloudBasics(t *testing.T) {
	c := NewCloud(nil)
	if c.Len() != 0 {
		t.Fatal("new cloud not empty")
	}
	c.Add(Point{Pos: geom.V3(1, 2, 3), FeatureID: 7, Views: 3})
	c.Add(Point{Pos: geom.V3(-1, 0, 1), Artificial: true})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.At(0).FeatureID != 7 || c.At(1).Pos != geom.V3(-1, 0, 1) {
		t.Error("At returned wrong points")
	}
	if c.CountArtificial() != 1 {
		t.Error("CountArtificial wrong")
	}
	n := 0
	c.Each(func(p Point) { n++ })
	if n != 2 {
		t.Error("Each visited wrong count")
	}
}

func TestCloudCopySemantics(t *testing.T) {
	src := []Point{{Pos: geom.V3(1, 1, 1)}}
	c := NewCloud(src)
	src[0].Pos = geom.V3(9, 9, 9)
	if c.At(0).Pos != geom.V3(1, 1, 1) {
		t.Error("NewCloud must copy its input")
	}
	pts := c.Points()
	pts[0].Pos = geom.V3(5, 5, 5)
	if c.At(0).Pos != geom.V3(1, 1, 1) {
		t.Error("Points must return a copy")
	}
	clone := c.Clone()
	clone.Add(Point{})
	if c.Len() != 1 {
		t.Error("Clone shares storage")
	}
}

func TestCloudMergeAndBounds(t *testing.T) {
	a := NewCloud([]Point{{Pos: geom.V3(0, 0, 0)}, {Pos: geom.V3(2, 1, 5)}})
	b := NewCloud([]Point{{Pos: geom.V3(-1, 4, 0)}})
	a.Merge(b)
	if a.Len() != 3 {
		t.Fatalf("merged len = %d", a.Len())
	}
	box := a.Bounds2D()
	if !box.Min.ApproxEq(geom.V2(-1, 0)) || !box.Max.ApproxEq(geom.V2(2, 4)) {
		t.Errorf("bounds = %+v", box)
	}
	if !NewCloud(nil).Bounds2D().Empty() {
		t.Error("empty cloud bounds should be empty")
	}
}

// clusterCloud builds a dense cube of points plus nOut far-away outliers.
func clusterCloud(rng *rand.Rand, nIn, nOut int) *Cloud {
	c := NewCloud(nil)
	for i := 0; i < nIn; i++ {
		c.Add(Point{Pos: geom.V3(rng.Float64(), rng.Float64(), rng.Float64()), FeatureID: uint64(i + 1)})
	}
	for i := 0; i < nOut; i++ {
		// Outliers 20..30 m away, isolated from everything.
		dir := geom.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Norm()
		c.Add(Point{Pos: dir.Scale(20 + 10*rng.Float64()).Add(geom.V3(50*float64(i), 0, 0))})
	}
	return c
}

func TestSORRemovesOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := clusterCloud(rng, 300, 5)
	out, removed, err := StatisticalOutlierRemoval(c, SOROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if removed < 5 {
		t.Errorf("removed %d points, want at least the 5 outliers", removed)
	}
	// All far outliers must be gone.
	out.Each(func(p Point) {
		if p.Pos.Len() > 10 {
			t.Errorf("outlier at %v survived", p.Pos)
		}
	})
	// The bulk of the inliers must survive.
	if out.Len() < 250 {
		t.Errorf("only %d inliers survived out of 300", out.Len())
	}
}

func TestSORKeepsUniformCloud(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := clusterCloud(rng, 200, 0)
	out, removed, err := StatisticalOutlierRemoval(c, SOROptions{StdDevMul: 3})
	if err != nil {
		t.Fatal(err)
	}
	if removed > 4 {
		t.Errorf("removed %d from a uniform cloud with 3-sigma threshold", removed)
	}
	if out.Len()+removed != c.Len() {
		t.Error("point count mismatch")
	}
}

func TestSORSmallClouds(t *testing.T) {
	// Clouds at or below K+1 points are returned unchanged.
	c := NewCloud([]Point{
		{Pos: geom.V3(0, 0, 0)},
		{Pos: geom.V3(100, 0, 0)},
	})
	out, removed, err := StatisticalOutlierRemoval(c, SOROptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || out.Len() != 2 {
		t.Errorf("small cloud changed: removed=%d len=%d", removed, out.Len())
	}
	// Empty cloud.
	out, removed, err = StatisticalOutlierRemoval(NewCloud(nil), SOROptions{})
	if err != nil || removed != 0 || out.Len() != 0 {
		t.Errorf("empty cloud: out=%d removed=%d err=%v", out.Len(), removed, err)
	}
}

func TestSORValidation(t *testing.T) {
	c := clusterCloud(rand.New(rand.NewSource(1)), 50, 0)
	if _, _, err := StatisticalOutlierRemoval(c, SOROptions{K: -1}); err == nil {
		t.Error("negative K should error")
	}
	if _, _, err := StatisticalOutlierRemoval(c, SOROptions{StdDevMul: -2}); err == nil {
		t.Error("negative StdDevMul should error")
	}
}

func TestSORPreservesMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := clusterCloud(rng, 100, 2)
	out, _, err := StatisticalOutlierRemoval(c, SOROptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	out.Each(func(p Point) { ids[p.FeatureID] = true })
	if !ids[1] || !ids[50] {
		t.Error("feature IDs lost through SOR")
	}
}

func TestKNNExactness(t *testing.T) {
	// Compare grid-accelerated kNN against the naive reference on a random
	// cloud.
	rng := rand.New(rand.NewSource(21))
	var pts []Point
	for i := 0; i < 120; i++ {
		pts = append(pts, Point{Pos: geom.V3(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)})
	}
	idx := newKNNIndex(pts, 0.5)
	for _, k := range []int{1, 3, 8} {
		for i := 0; i < len(pts); i += 7 {
			got := idx.nearest(i, k)
			if want := naiveKNN(pts, i, k); !sameBits(got, want) {
				t.Fatalf("k=%d i=%d: got %v want %v", k, i, got, want)
			}
		}
	}
	if idx.nearest(0, 0) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestMaxAbs3(t *testing.T) {
	tests := []struct{ a, b, c, want int }{
		{0, 0, 0, 0},
		{-3, 1, 2, 3},
		{1, -5, 2, 5},
		{1, 2, -7, 7},
		{4, 4, 4, 4},
	}
	for _, tt := range tests {
		if got := maxAbs3(tt.a, tt.b, tt.c); got != tt.want {
			t.Errorf("maxAbs3(%d,%d,%d) = %d, want %d", tt.a, tt.b, tt.c, got, tt.want)
		}
	}
}
