package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/client"
	"snaptask/internal/core"
	"snaptask/internal/server"
	"snaptask/internal/venue"
)

func TestBuildVenue(t *testing.T) {
	tests := []struct {
		name    string
		wantErr bool
	}{
		{"library", false},
		{"small", false},
		{"office", false},
		{"bogus", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := venue.ByName(tt.name, 1)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && v.Area() <= 0 {
				t.Error("empty venue")
			}
		})
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-venue", "bogus"}); err == nil {
		t.Error("bogus venue accepted")
	}
	if err := run(ctx, []string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"-log-level", "shout"}); err == nil {
		t.Error("bogus log level accepted")
	}
	if err := run(ctx, []string{"-log-format", "xml"}); err == nil {
		t.Error("bogus log format accepted")
	}
	// The single-file journal and the -save snapshot are gone: persistence
	// is -journal-dir only, and the old flags fail at parse.
	for _, f := range []string{"-journal", "-save"} {
		err := run(ctx, []string{f, "x"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s x: err = %v, want a flag parse error", f, err)
		}
	}
}

// TestPprofEndpoint starts the server with -pprof-addr and expects the
// profiling index to come up on the side listener (and only there — the
// default is off, covered by the main API mux having no /debug routes).
func TestPprofEndpoint(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-venue", "small", "-pprof-addr", pprofAddr})
	}()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after context cancellation")
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pprof index status %d", resp.StatusCode)
			}
			// The span ring rides on the same debug listener.
			resp, err = http.Get("http://" + pprofAddr + "/debug/traces")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("debug traces status %d", resp.StatusCode)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof endpoint never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestGracefulShutdown cancels the serve context (the SIGINT/SIGTERM path)
// and expects run to drain, write the shutdown checkpoint with the model
// (<journal-dir>/model.snap), and return nil rather than ErrServerClosed.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-venue", "small", "-journal-dir", dir})
	}()
	// Shutdown-before-Serve is handled by net/http (Serve returns
	// ErrServerClosed immediately), so an early cancel is safe too.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}

	// The shutdown model snapshot restores into a working system.
	f, err := os.Open(filepath.Join(dir, "model.snap"))
	if err != nil {
		t.Fatalf("snapshot not saved: %v", err)
	}
	defer f.Close()
	v, err := venue.ByName("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(42))))
	if _, err := core.LoadSystem(f, v, world); err != nil {
		t.Fatalf("saved state does not load: %v", err)
	}
}

// TestLeaseLifecycleE2E drives the full dispatch story against the real
// server entrypoint: registration, claims, reassignment after the holder
// stops heartbeating, blur exclusion, and a restart over the journal
// directory — from the shutdown checkpoint and model.snap — that restores
// the /v1/status dispatch section byte-identically.
func TestLeaseLifecycleE2E(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{
		"-addr", addr, "-venue", "small", "-journal-dir", t.TempDir(),
		"-lease-ttl", "1s", "-log-level", "error",
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	waitReady(t, addr)

	// The same simulated world the server derives from -venue/-seed.
	v, err := venue.ByName("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(42))))
	rng := rand.New(rand.NewSource(9))
	cl := client.New("http://"+addr, nil)

	photos, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadBootstrap(photos); err != nil {
		t.Fatal(err)
	}

	w1, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
	if err != nil {
		t.Fatal(err)
	}

	// w1 claims and goes silent; past the TTL the task is w2's.
	task1, ok, err := cl.Claim(w1.ID, nil)
	if err != nil || !ok {
		t.Fatalf("w1 claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(1500 * time.Millisecond)
	task2, ok, err := cl.Claim(w2.ID, nil)
	if err != nil || !ok {
		t.Fatalf("w2 claim after expiry: ok=%v err=%v", ok, err)
	}
	if task2.ID != task1.ID {
		t.Fatalf("w2 got task %d, want the abandoned task %d", task2.ID, task1.ID)
	}

	// w2 uploads a careless, fully blurred sweep: the task is re-issued
	// with w2 excluded.
	if _, err := cl.Heartbeat(w2.ID); err != nil {
		t.Fatal(err)
	}
	blurry, err := world.Sweep(task2.Location, camera.DefaultIntrinsics(),
		camera.CaptureOptions{MotionBlurLen: 14}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadPhotos(task2, blurry); err != nil {
		t.Fatalf("blurry upload: %v", err)
	}
	if _, ok, err := cl.Claim(w2.ID, nil); err != nil || ok {
		t.Fatalf("blur-excluded worker was reassigned the task: ok=%v err=%v", ok, err)
	}
	task3, ok, err := cl.Claim(w1.ID, nil)
	if err != nil || !ok {
		t.Fatalf("w1 claim of re-issued task: ok=%v err=%v", ok, err)
	}
	if task3.ID == task2.ID {
		t.Fatal("re-issued task kept the old ID")
	}

	before := statusJSON(t, addr)

	// Restart over the same journal directory.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first run did not stop")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- run(ctx2, args) }()
	defer func() {
		cancel2()
		select {
		case <-done2:
		case <-time.After(30 * time.Second):
			t.Fatal("second run did not stop")
		}
	}()
	waitReady(t, addr)

	after := statusJSON(t, addr)
	if before != after {
		t.Fatalf("status diverged across restart:\nbefore: %s\nafter:  %s", before, after)
	}
}

// waitReady polls /readyz until the server answers.
func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// statusJSON fetches /v1/status and renders it canonically (map keys sort
// on marshal): the model fields, the lifecycle fold and the dispatch
// section.
func statusJSON(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"lifecycle", "dispatch"} {
		if _, ok := status[section]; !ok {
			t.Fatalf("status has no %s section", section)
		}
	}
	b, err := json.Marshal(status)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
