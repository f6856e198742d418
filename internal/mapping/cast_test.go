package mapping

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
)

// castViewOracle is the map-backed cast CastView replaced: the same rays,
// with the covered set held in a map[grid.Cell]bool and emitted in map
// order. It is the reference the dense covered set must reproduce.
func castViewOracle(v View, obstacles *grid.Map, step float64) Contribution {
	in := v.Intrinsics
	if step <= 0 {
		step = 0.8 * obstacles.Res() / in.Range
	}
	covered := make(map[grid.Cell]bool)
	own := obstacles.CellOf(v.Pose.Pos)
	hasOwn := obstacles.InBounds(own)
	if hasOwn {
		covered[own] = true
	}
	for a := -in.HFOV / 2; a <= in.HFOV/2; a += step {
		dir := geom.UnitFromAngle(v.Pose.Yaw + a)
		end := v.Pose.Pos.Add(dir.Scale(in.Range))
		blocked := false
		obstacles.RasterizeSegment(geom.Seg(v.Pose.Pos, end), func(c grid.Cell) {
			if blocked || !obstacles.InBounds(c) {
				blocked = true
				return
			}
			if obstacles.At(c) > 0 {
				covered[c] = true
				blocked = true
				return
			}
			covered[c] = true
		})
	}
	co := Contribution{}
	w := obstacles.Width()
	for c := range covered {
		m := uint8(quadrantBit(v.Pose.Pos, obstacles.CenterOf(c)))
		if hasOwn && c == own {
			m = 0xF
		}
		co.Idx = append(co.Idx, int32(c.J*w+c.I))
		co.Mask = append(co.Mask, m)
	}
	return co
}

// sortedPairs returns a contribution's (Idx, Mask) pairs sorted by Idx.
func sortedPairs(co Contribution) [][2]int {
	out := make([][2]int, len(co.Idx))
	for k := range co.Idx {
		out[k] = [2]int{int(co.Idx[k]), int(co.Mask[k])}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// randomObstacles returns a random-size map with scattered obstacle cells
// and a few wall runs.
func randomObstacles(t *testing.T, rng *rand.Rand) *grid.Map {
	t.Helper()
	res := []float64{0.15, 0.2, 0.25, 0.3}[rng.Intn(4)]
	m, err := grid.New(geom.V2(rng.Float64()*6-3, rng.Float64()*6-3), res, 20+rng.Intn(80), 20+rng.Intn(80))
	if err != nil {
		t.Fatal(err)
	}
	density := rng.Float64() * 0.08
	m.Each(func(c grid.Cell, _ int) {
		if rng.Float64() < density {
			m.Set(c, 1+rng.Intn(9))
		}
	})
	for w := 0; w < rng.Intn(5); w++ {
		c := grid.Cell{I: rng.Intn(m.Width()), J: rng.Intn(m.Height())}
		for k := 0; k < 5+rng.Intn(30); k++ {
			if m.InBounds(c) {
				m.Set(c, 5)
			}
			if w%2 == 0 {
				c.I++
			} else {
				c.J++
			}
		}
	}
	return m
}

// randomView places a camera inside the map, on its edge, or outside it,
// with a range that is usually not a multiple of the resolution.
func randomView(rng *rand.Rand, m *grid.Map) View {
	b := m.Bounds()
	var pos geom.Vec2
	switch rng.Intn(4) {
	case 0: // outside the map entirely (hasOwn=false)
		pos = geom.V2(b.Min.X-1-rng.Float64()*4, b.Max.Y+rng.Float64()*3)
	case 1: // on an edge of the map
		pos = geom.V2(b.Min.X+rng.Float64()*b.Width(), b.Min.Y)
		if rng.Intn(2) == 0 {
			pos = geom.V2(b.Max.X-1e-9, b.Min.Y+rng.Float64()*b.Height())
		}
	default:
		pos = geom.V2(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
	}
	in := camera.DefaultIntrinsics()
	in.Range = 1 + rng.Float64()*9
	if rng.Intn(4) == 0 {
		in.Range = float64(4+rng.Intn(20)) * m.Res() // an exact multiple
	}
	in.HFOV = 0.2 + rng.Float64()*2.5
	return View{Pose: camera.Pose{Pos: pos, Yaw: rng.Float64()*2*math.Pi - math.Pi}, Intrinsics: in}
}

// TestCastViewMatchesOracle casts random views over random obstacle maps
// and requires the dense covered set to produce the oracle's (Idx, Mask)
// pairs, the same merged grids, and the same Idx order on every cast.
func TestCastViewMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var shared castSet // reused across views, as a castViews worker does
	for trial := 0; trial < 40; trial++ {
		obstacles := randomObstacles(t, rng)
		views := make([]View, 1+rng.Intn(12))
		for i := range views {
			views[i] = randomView(rng, obstacles)
		}
		cfg := resolveRayStep(Config{}, obstacles.Res(), views)
		if rng.Intn(3) == 0 {
			cfg.RayStep = 0.01 + rng.Float64()*0.05
		}
		oracle := make([]Contribution, len(views))
		for i, v := range views {
			oracle[i] = castViewOracle(v, obstacles, cfg.RayStep)
			got := castView(v, obstacles, cfg.RayStep, &shared)
			if !slices.Equal(sortedPairs(got), sortedPairs(oracle[i])) {
				t.Fatalf("trial %d view %d (%+v): dense cast differs from oracle", trial, i, v)
			}
			again := CastView(v, obstacles, cfg.RayStep)
			if !slices.Equal(got.Idx, again.Idx) || !slices.Equal(got.Mask, again.Mask) {
				t.Fatalf("trial %d view %d: two casts of one view differ in order", trial, i)
			}
		}
		vis, aspects, err := VisibilityMap(views, obstacles, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantVis, wantAspects := mergeContributions(oracle, obstacles)
		if !gridsEqual(vis, wantVis) || !gridsEqual(aspects, wantAspects) {
			t.Fatalf("trial %d: merged visibility/aspect grids differ from oracle", trial)
		}
	}
}

// TestCastSetOutsideBox covers the covered set's exact fallback for cells
// outside its range box, and that reset clears what the last cast set.
func TestCastSetOutsideBox(t *testing.T) {
	var s castSet
	s.reset(grid.Cell{I: 10, J: 10}, 2)
	for _, c := range []grid.Cell{{I: 10, J: 10}, {I: 12, J: 8}, {I: 13, J: 10}, {I: 10, J: 10}, {I: 13, J: 10}, {I: 9, J: 11}} {
		s.add(c)
	}
	want := []grid.Cell{{I: 10, J: 10}, {I: 12, J: 8}, {I: 13, J: 10}, {I: 9, J: 11}}
	if !slices.Equal(s.cells, want) {
		t.Fatalf("cells = %v, want first-touch %v", s.cells, want)
	}
	s.reset(grid.Cell{I: 11, J: 9}, 2)
	if len(s.cells) != 0 || slices.Contains(s.in, true) {
		t.Fatal("reset left covered cells behind")
	}
	s.reset(grid.Cell{I: 0, J: 0}, 5) // a larger box reallocates
	s.add(grid.Cell{I: -5, J: 5})
	if !s.in[len(s.in)-s.side] || len(s.in) != 11*11 {
		t.Fatal("corner cell of a grown box not recorded in place")
	}
}
