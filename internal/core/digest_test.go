package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/grid"
	"snaptask/internal/pointcloud"
	"snaptask/internal/venue"
)

// kernelOutputDigest pins the output of the owner-path geometry kernels
// (SOR k-nearest-neighbour filtering, obstacle merge and visibility ray
// casting) on a fixed small-room guided campaign. Speed work on those
// kernels must leave every bit of their output alone; if this digest
// moves, the kernels changed behaviour, not just cost.
const kernelOutputDigest = "bebadd25fc92f0c4b3f11d6cdda8c7687e56bd6eb9916aa79b53b1b52768fc9f"

// TestKernelOutputDigest runs a short fixed guided loop on the small venue
// and hashes, after every task, the SOR survivors' positions and the
// obstacle, visibility, aspect and coverage grids. The incremental path
// and the full-recompute path must both reproduce the pinned digest.
func TestKernelOutputDigest(t *testing.T) {
	for _, full := range []bool{false, true} {
		v, err := venue.SmallRoom()
		if err != nil {
			t.Fatal(err)
		}
		w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
		sys, err := NewSystem(v, w, Config{Margin: 3, FullRebuild: full})
		if err != nil {
			t.Fatal(err)
		}
		gt, err := v.GroundTruthAt(sys.Layout())
		if err != nil {
			t.Fatal(err)
		}
		worker := &crowd.GuidedWorker{
			World:      w,
			Venue:      v,
			Intrinsics: camera.DefaultIntrinsics(),
			Pos:        v.Entrance(),
		}
		h := sha256.New()
		_, err = RunGuidedLoop(sys, worker, v.WalkMap(gt), LoopOptions{
			MaxTasks:    12,
			OnIteration: func(Iteration) { hashKernelOutputs(t, h, sys) },
		}, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != kernelOutputDigest {
			t.Errorf("FullRebuild=%v: kernel output digest %s, want %s", full, got, kernelOutputDigest)
		}
	}
}

// hashKernelOutputs folds the current SOR survivors and maps into h.
func hashKernelOutputs(t *testing.T, h hash.Hash, sys *System) {
	t.Helper()
	kept, _, err := pointcloud.StatisticalOutlierRemoval(sys.Model().Cloud(), sys.cfg.SOR)
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(kept.Len()))
	kept.Each(func(p pointcloud.Point) {
		put(math.Float64bits(p.Pos.X))
		put(math.Float64bits(p.Pos.Y))
		put(math.Float64bits(p.Pos.Z))
	})
	m := sys.Maps()
	for _, g := range []*grid.Map{m.Obstacles, m.Visibility, m.Aspects, m.Coverage} {
		put(uint64(g.Width()))
		put(uint64(g.Height()))
		g.Each(func(_ grid.Cell, v int) { put(uint64(v)) })
	}
}
