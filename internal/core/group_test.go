package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/venue"
)

// groupSweeps captures n registrable sweeps spread across the room, each a
// separate upload batch.
func groupSweeps(t *testing.T, w *camera.World, v *venue.Venue, n int, rng *rand.Rand) []UploadBatch {
	t.Helper()
	var batches []UploadBatch
	for i := 0; i < n; i++ {
		pos := v.Entrance()
		pos.X += 0.9 * float64(i%4)
		pos.Y += 1.2 + 0.8*float64(i/4)
		photos, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, UploadBatch{TaskLoc: pos, TaskSeed: pos, Photos: photos})
	}
	return batches
}

// bootstrappedSmallSystem returns a small-room system that has ingested the
// entrance capture drawn from capRng, using rng for registration.
func bootstrappedSmallSystem(t *testing.T, capRng, rng *rand.Rand) (*System, *camera.World, *venue.Venue) {
	t.Helper()
	sys, w, v := smallSystem(t)
	boot, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), capRng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	return sys, w, v
}

// TestProcessPhotoBatchGroup exercises the grouped ingest path: every
// batch registers, per-batch results come back in input order, and one
// shared rebuild produces coverage. Empty groups and empty batches are
// rejected.
func TestProcessPhotoBatchGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys, w, v := bootstrappedSmallSystem(t, rng, rng)
	before := sys.PhotosProcessed()

	batches := groupSweeps(t, w, v, 8, rng)
	out, err := sys.ProcessPhotoBatchGroup(batches, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Batches) != len(batches) {
		t.Fatalf("group outcome has %d batch results, want %d", len(out.Batches), len(batches))
	}
	total, registered := 0, 0
	for i, b := range batches {
		total += len(b.Photos)
		r := out.Batches[i]
		if n := len(r.Registered) + len(r.RejectedBlurry) + len(r.Unregistered); n != len(b.Photos) {
			t.Errorf("batch %d result accounts for %d photos, want %d", i, n, len(b.Photos))
		}
		registered += len(r.Registered)
	}
	if registered == 0 {
		t.Fatal("group ingest registered no photos")
	}
	if sys.PhotosProcessed() != before+total {
		t.Fatalf("photos processed %d, want %d", sys.PhotosProcessed(), before+total)
	}
	if out.CoverageCells == 0 {
		t.Fatal("group ingest produced no coverage")
	}

	// Validation: empty group and empty batch inside a group are rejected.
	if _, err := sys.ProcessPhotoBatchGroup(nil, rng); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := sys.ProcessPhotoBatchGroup([]UploadBatch{{TaskLoc: v.Entrance()}}, rng); err == nil {
		t.Error("group with an empty batch accepted")
	}
}

// TestProcessPhotoBatchGroupMonolithic runs a small group of four sweeps
// through the monolithic model after a bootstrap: the outcome carries one
// result per batch and the group registers photos.
func TestProcessPhotoBatchGroupMonolithic(t *testing.T) {
	sys, w, v := smallSystem(t)
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	batches := groupSweeps(t, w, v, 4, rng)
	out, err := sys.ProcessPhotoBatchGroup(batches, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Batches) != len(batches) {
		t.Fatalf("group outcome has %d batch results, want %d", len(out.Batches), len(batches))
	}
	registered := 0
	for _, r := range out.Batches {
		registered += len(r.Registered)
	}
	if registered == 0 {
		t.Fatal("monolithic group ingest registered no photos")
	}
}

// TestGroupedIngestMatchesPerUpload pins the equivalence grouped ingest
// rests on: folding n batches in one group leaves the same model and maps
// as folding them one ProcessPhotoBatch at a time with an identically
// seeded rng. Only the coverage-growth check and the task-generation step
// differ (once per group instead of once per batch), and neither feeds
// back into the reconstruction.
func TestGroupedIngestMatchesPerUpload(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("batches=%d", n), func(t *testing.T) {
			grouped, w, v := bootstrappedSmallSystem(t, rand.New(rand.NewSource(2)), rand.New(rand.NewSource(3)))
			perUpload, _, _ := bootstrappedSmallSystem(t, rand.New(rand.NewSource(2)), rand.New(rand.NewSource(3)))
			batches := groupSweeps(t, w, v, n, rand.New(rand.NewSource(4)))

			if _, err := grouped.ProcessPhotoBatchGroup(batches, rand.New(rand.NewSource(5))); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			for _, b := range batches {
				if _, err := perUpload.ProcessPhotoBatch(b.TaskLoc, b.TaskSeed, b.Photos, rng); err != nil {
					t.Fatal(err)
				}
			}

			if !bytes.Equal(modelBytes(t, grouped), modelBytes(t, perUpload)) {
				t.Fatal("model snapshots differ between grouped and per-upload ingest")
			}
			requireMapEqual(t, "obstacles", grouped.Maps().Obstacles, perUpload.Maps().Obstacles)
			requireMapEqual(t, "visibility", grouped.Maps().Visibility, perUpload.Maps().Visibility)
			requireMapEqual(t, "aspects", grouped.Maps().Aspects, perUpload.Maps().Aspects)
			requireMapEqual(t, "coverage", grouped.Maps().Coverage, perUpload.Maps().Coverage)
			if grouped.PhotosProcessed() != perUpload.PhotosProcessed() {
				t.Fatalf("photos processed %d (grouped) vs %d (per-upload)",
					grouped.PhotosProcessed(), perUpload.PhotosProcessed())
			}
			t.Logf("%d views, %d points, %d coverage cells",
				grouped.NumViews(), grouped.NumPoints(), grouped.Maps().CoverageCells())
		})
	}
}
