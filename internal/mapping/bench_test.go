package mapping

import (
	"math"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/venue"
)

// BenchmarkCastView casts 64 default-intrinsics views from random spots of
// the library venue against its ground-truth obstacles, through the same
// worker pool the map builders use. One op is the 64 casts.
func BenchmarkCastView(b *testing.B) {
	v, err := venue.Library()
	if err != nil {
		b.Fatal(err)
	}
	layout, err := grid.NewFromBounds(v.Bounds().Expand(3), 0.15)
	if err != nil {
		b.Fatal(err)
	}
	gt, err := v.GroundTruthAt(layout)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bounds := v.Bounds()
	views := make([]View, 64)
	for i := range views {
		pos := geom.V2(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
		views[i] = View{
			Pose:       camera.Pose{Pos: pos, Yaw: rng.Float64()*2*math.Pi - math.Pi},
			Intrinsics: camera.DefaultIntrinsics(),
		}
	}
	cfg := resolveRayStep(Config{}, layout.Res(), views)
	dst := make([]Contribution, len(views))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := castViews(dst, views, gt.Obstacles, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
