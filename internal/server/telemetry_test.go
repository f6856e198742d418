package server

import (
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

// newTelemetryTestServer builds a backend over the small test room with the
// full observability bundle wired in.
func newTelemetryTestServer(t *testing.T) (*httptest.Server, *camera.World, *venue.Venue, *telemetry.Telemetry) {
	t.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(1)))
	w := camera.NewWorld(v, feats)
	sys, err := core.NewSystem(v, w, core.Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(slog.New(slog.DiscardHandler), 16)
	sys.SetTelemetry(tel)
	srv, err := New(sys, rand.New(rand.NewSource(2)), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, w, v, tel
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// bootstrapUpload pushes the standard bootstrap batch through the API.
func bootstrapUpload(t *testing.T, ts *httptest.Server, w *camera.World, v *venue.Venue, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	var up UploadResponse
	if code := postJSON(t, ts.URL+"/v1/photos", req, &up); code != http.StatusOK {
		t.Fatalf("bootstrap upload code %d", code)
	}
}

// TestHealthEndpoints checks the probes on a telemetry-free server: they
// must exist and answer without any observability configured.
func TestHealthEndpoints(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 ok", code, body)
	}
	// The server publishes its first snapshot in New, so it is born ready.
	if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Errorf("readyz = %d %q, want 200 ready", code, body)
	}
	// No telemetry bundle means no /metrics route.
	if code, _ := getBody(t, ts.URL+"/metrics"); code != http.StatusNotFound {
		t.Errorf("metrics on bare server = %d, want 404", code)
	}
}

// TestMetricsEndpoint checks the exposition after one real ingest: HTTP,
// snapshot and ingest series must all be present with plausible values.
func TestMetricsEndpoint(t *testing.T) {
	ts, w, v, _ := newTelemetryTestServer(t)
	bootstrapUpload(t, ts, w, v, 3)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics code %d", code)
	}
	for _, want := range []string{
		`snaptask_http_requests_total{route="POST /v1/photos",method="POST",code="200"} 1`,
		`snaptask_ingest_batches_total{kind="bootstrap",result="ok"} 1`,
		"snaptask_snapshot_publishes_total",
		"snaptask_model_views",
		"snaptask_ingest_stage_duration_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestTracesAfterIngest checks the tracer captured per-stage spans for the
// batch the upload drove through the owner path, plus the upload's request
// trace with its decode span, both under the upload's request ID.
func TestTracesAfterIngest(t *testing.T) {
	ts, w, v, tel := newTelemetryTestServer(t)
	bootstrapUpload(t, ts, w, v, 3)

	recent := tel.Tracer.Recent()
	if len(recent) != 2 {
		t.Fatalf("got %d traces, want 2 (batch + upload request)", len(recent))
	}
	byKind := make(map[string]telemetry.TraceRecord)
	for _, tr := range recent {
		byKind[tr.Kind] = tr
	}
	req := byKind["upload"]
	if len(req.Stages) != 1 || req.Stages[0].Stage != "upload.decode" || req.Err != "" {
		t.Errorf("upload request trace: %+v", req)
	}
	tr := byKind["bootstrap"]
	if tr.Kind != "bootstrap" || tr.RequestID == "" || tr.Err != "" {
		t.Errorf("trace header: %+v", tr)
	}
	if req.RequestID != tr.RequestID {
		t.Errorf("request trace ID %q, batch trace ID %q", req.RequestID, tr.RequestID)
	}
	stages := make(map[string]bool)
	for _, sp := range tr.Stages {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"sfm.match", "sfm.seed", "sor", "taskgen", "map.obstacles"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, tr.Stages)
		}
	}
	if tr.Counts["photos"] == 0 || tr.Counts["registered"] == 0 {
		t.Errorf("trace counts: %v", tr.Counts)
	}
}

// TestConcurrentScrapeDuringUploads hammers /metrics and /debug/traces
// while uploads mutate the model — the race detector is the assertion.
func TestConcurrentScrapeDuringUploads(t *testing.T) {
	ts, w, v, tel := newTelemetryTestServer(t)
	traces := httptest.NewServer(tel.Tracer.Handler())
	defer traces.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, url := range []string{ts.URL + "/metrics", ts.URL + "/v1/status", traces.URL} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: code %d", url, resp.StatusCode)
					return
				}
			}
		}()
	}

	bootstrapUpload(t, ts, w, v, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		sweep, err := w.Sweep(v.Entrance(), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		req := UploadRequest{LocX: v.Entrance().X, LocY: v.Entrance().Y}
		for _, p := range sweep {
			req.Photos = append(req.Photos, PhotoToDTO(p))
		}
		var up UploadResponse
		if code := postJSON(t, ts.URL+"/v1/photos", req, &up); code != http.StatusOK {
			t.Fatalf("sweep upload %d code %d", i, code)
		}
	}
	close(stop)
	wg.Wait()

	// One batch trace and one upload request trace per upload.
	if got := len(tel.Tracer.Recent()); got != 8 {
		t.Errorf("got %d traces, want 8", got)
	}
}
