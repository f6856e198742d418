package pointcloud

import (
	"math/rand"
	"testing"

	"snaptask/internal/geom"
)

// venueCloud synthesises an SfM-like cloud of a library-sized venue: n
// points, most on the walls of a 60 x 40 m floor (a few cm of depth noise,
// 0.1–2.5 m high), about 3% scattered anywhere in the volume.
func venueCloud(rng *rand.Rand, n int) []Point {
	type wall struct {
		x, y, length float64
		alongX       bool
	}
	walls := make([]wall, 40)
	for i := range walls {
		walls[i] = wall{rng.Float64() * 60, rng.Float64() * 40, 2 + rng.Float64()*13, rng.Intn(2) == 0}
	}
	pts := make([]Point, n)
	for i := range pts {
		var pos geom.Vec3
		if rng.Float64() < 0.03 {
			pos = geom.V3(rng.Float64()*60, rng.Float64()*40, rng.Float64()*5-1)
		} else {
			w := walls[rng.Intn(len(walls))]
			along, depth, z := rng.Float64()*w.length, rng.NormFloat64()*0.03, 0.1+rng.Float64()*2.4
			if w.alongX {
				pos = geom.V3(w.x+along, w.y+depth, z)
			} else {
				pos = geom.V3(w.x+depth, w.y+along, z)
			}
		}
		pts[i] = Point{Pos: pos, FeatureID: uint64(i + 1), Views: 3}
	}
	return pts
}

const venueCloudSize = 25000

// benchDists keeps benchmarked kNN results live.
var benchDists []float64

func BenchmarkKNNNearest(b *testing.B) {
	pts := venueCloud(rand.New(rand.NewSource(1)), venueCloudSize)
	idx := newKNNIndex(pts, SOROptions{}.withDefaults().CellSize)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchDists = idx.nearest(n%len(pts), 8)
	}
}

func BenchmarkSORFull(b *testing.B) {
	c := Wrap(venueCloud(rand.New(rand.NewSource(1)), venueCloudSize))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := StatisticalOutlierRemoval(c, SOROptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSORFilterAppend times one batch-sized delta (580 triangulated
// points and 20 in the outlier segment) filtered onto a warm cache of the
// rest of a venue cloud.
func BenchmarkSORFilterAppend(b *testing.B) {
	pts := venueCloud(rand.New(rand.NewSource(1)), venueCloudSize)
	const newA, newB = 580, 20
	segA, segB := pts[:len(pts)-newB], pts[len(pts)-newB:]
	base, baseSplit := buildTwoSegment(segA[:len(segA)-newA], nil)
	grown, split := buildTwoSegment(segA, segB)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		inc, err := NewIncrementalSOR(SOROptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := inc.Filter(base, baseSplit); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := inc.FilterAppend(grown, split, newA, newB); err != nil {
			b.Fatal(err)
		}
	}
}
