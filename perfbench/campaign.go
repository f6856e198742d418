package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/client"
	"snaptask/internal/core"
	"snaptask/internal/crowd"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/metrics"
	"snaptask/internal/server"
	"snaptask/internal/venue"
)

// venueName is the paper's venue: the library floor, where publish, wire
// decode and SfM costs are large enough to show.
const venueName = "library"

// maxCampaignTasks bounds the tasks one campaign may claim; a library
// campaign needs about 40.
const maxCampaignTasks = 400

// world is the simulated venue a campaign maps: the server derives the
// same one from -venue and -seed.
type world struct {
	seed  int64
	v     *venue.Venue
	w     *camera.World
	walk  *grid.Map
	intr  camera.Intrinsics
	truth map[string]*grid.Map // truth coverage keyed by map layout
}

func newWorld(seed int64) (*world, error) {
	v, err := venue.ByName(venueName, seed)
	if err != nil {
		return nil, err
	}
	w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(seed))))
	gt, err := v.GroundTruth(0.15)
	if err != nil {
		return nil, err
	}
	return &world{seed: seed, v: v, w: w, walk: v.WalkMap(gt),
		intr: camera.DefaultIntrinsics(), truth: map[string]*grid.Map{}}, nil
}

// coveragePct scores a served /v1/map against the venue truth with
// metrics.CoveragePercent: a cell counts as mapped when the map shows it
// as obstacle or visible.
func (wd *world) coveragePct(m server.MapResponse) (float64, error) {
	g, err := grid.New(geom.V2(m.OriginX, m.OriginY), m.Res, m.Width, m.Height)
	if err != nil {
		return 0, err
	}
	if len(m.Rows) != m.Height {
		return 0, fmt.Errorf("map has %d rows, want %d", len(m.Rows), m.Height)
	}
	for r, row := range m.Rows {
		if len(row) != m.Width {
			return 0, fmt.Errorf("map row %d has width %d, want %d", r, len(row), m.Width)
		}
		j := m.Height - 1 - r
		for i := 0; i < m.Width; i++ {
			if row[i] == '#' || row[i] == '.' {
				g.Set(grid.Cell{I: i, J: j}, 1)
			}
		}
	}
	key := fmt.Sprintf("%v/%v/%d/%d", m.OriginX, m.OriginY, m.Width, m.Height)
	truth := wd.truth[key]
	if truth == nil {
		gt, err := wd.v.GroundTruthAt(g)
		if err != nil {
			return 0, err
		}
		if truth, err = gt.Coverage(); err != nil {
			return 0, err
		}
		wd.truth[key] = truth
	}
	return metrics.CoveragePercent(g, truth)
}

// campaignSpec is one campaign's inputs: the world the server maps and the
// seed of the worker's own behaviour (navigation error, capture noise).
type campaignSpec struct {
	World int64
	Agent int64
}

// campaignResult is what one campaign measured and produced.
type campaignResult struct {
	spec     campaignSpec
	setup    time.Duration // server start to ready, worker registered, warmed up
	wall     time.Duration // bootstrap to done
	backend  time.Duration // time the worker waited on the backend in that span
	cpu      float64       // server CPU seconds in that span
	tasks    int           // photo + annotation tasks issued
	coverage float64
	mapJSON  []byte // final GET /v1/map body
	rssMB    float64
}

// campaignServer starts a journaled server for one campaign, registers the
// worker and warms the read paths. It returns the server, the registered
// worker ID and the set-up time.
func (b *bench) campaignServer(ctx context.Context, wd *world, hc *http.Client) (*serverProc, string, time.Duration, error) {
	dir, err := os.MkdirTemp(b.work, "journal-")
	if err != nil {
		return nil, "", 0, err
	}
	t0 := time.Now()
	srv, err := startServer(b.serverBin, b.procs, b.serverLog,
		"-venue", venueName, "-seed", fmt.Sprint(wd.seed), "-journal-dir", dir)
	if err != nil {
		return nil, "", 0, err
	}
	if err := srv.waitReady(ctx, hc, 60*time.Second); err != nil {
		_ = srv.stop()
		return nil, "", 0, err
	}
	cl := client.New(srv.base, hc)
	ent := wd.v.Entrance()
	reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{X: ent.X, Y: ent.Y, HasLoc: true})
	if err == nil {
		_, err = cl.Status()
	}
	if err == nil {
		_, err = cl.FetchMap()
	}
	if err != nil {
		_ = srv.stop()
		return nil, "", 0, fmt.Errorf("campaign warm-up: %w", err)
	}
	return srv, reg.ID, time.Since(t0), nil
}

// driveCampaign runs one guided campaign from bootstrap to done with a
// single lease-holding worker: claim, heartbeat, sweep and upload in a
// closed loop (client.Agent.RunWorker). The campaign is done when the
// venue is covered, or when a claim finds no task the worker may take while
// it holds no lease. Tasks may still be pending then: a blurry sweep bars
// its worker from the retry task, and a lone participant cannot hand it
// on. finishCampaign checks that no lease is left active.
func driveCampaign(cl *client.Client, wd *world, spec campaignSpec, workerID string, rec *wireRecorder) (campaignResult, error) {
	res := campaignResult{spec: spec}
	rng := rand.New(rand.NewSource(spec.Agent))
	waited0 := rec.waited()
	t0 := time.Now()
	boot, err := core.BootstrapCapture(wd.w, wd.v, wd.intr, rng)
	if err != nil {
		return res, err
	}
	if _, err := cl.UploadBootstrap(boot); err != nil {
		return res, fmt.Errorf("bootstrap upload: %w", err)
	}
	agent := &client.Agent{
		Client: cl,
		Worker: &crowd.GuidedWorker{World: wd.w, Venue: wd.v, Intrinsics: wd.intr, Pos: wd.v.Entrance()},
		Venue:  wd.v, WalkMap: wd.walk,
		// One empty claim ends RunWorker: with a single lease holder an
		// empty claim means nothing is claimable now or later.
		MaxIdle: 1,
		Poll:    time.Millisecond,
	}
	st, err := agent.RunWorker(workerID, maxCampaignTasks, rng)
	if err != nil {
		return res, fmt.Errorf("worker %s: %w", workerID, err)
	}
	if st.Claims >= maxCampaignTasks {
		return res, fmt.Errorf("campaign not done after %d tasks", st.Claims)
	}
	res.wall = time.Since(t0)
	res.backend = rec.waited() - waited0
	return res, nil
}

// finishCampaign fetches the final state and checks it: the /v1/status
// model counters must agree with the /v1/progress lifecycle fold, and the
// map must parse and score against the venue truth.
func finishCampaign(hc *http.Client, base string, wd *world, res *campaignResult) error {
	cl := client.New(base, hc)
	status, err := cl.Status()
	if err != nil {
		return err
	}
	var prog server.ProgressResponse
	if err := getJSON(hc, base+"/v1/progress", &prog); err != nil {
		return err
	}
	if err := checkLifecycle(status, prog); err != nil {
		return err
	}
	if status.Dispatch == nil || status.Dispatch.ActiveLeases != 0 {
		return fmt.Errorf("campaign ended with active leases")
	}
	res.tasks = status.PhotoTasks + status.AnnotationTasks
	body, err := getBody(hc, base+"/v1/map")
	if err != nil {
		return err
	}
	var m server.MapResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("decode map: %w", err)
	}
	if res.coverage, err = wd.coveragePct(m); err != nil {
		return err
	}
	res.mapJSON = body
	return nil
}

// checkLifecycle compares the model counters of /v1/status with the
// lifecycle fold /v1/progress serves.
func checkLifecycle(st server.StatusResponse, pr server.ProgressResponse) error {
	c := pr.Counters
	switch {
	case st.Lifecycle == nil:
		return fmt.Errorf("status has no lifecycle section")
	case *st.Lifecycle != c:
		return fmt.Errorf("status lifecycle %+v differs from progress fold %+v", *st.Lifecycle, c)
	case st.PhotoTasks != c.PhotoTasksIssued, st.AnnotationTasks != c.AnnotationTasksIssued:
		return fmt.Errorf("tasks issued: status %d+%d, fold %d+%d",
			st.PhotoTasks, st.AnnotationTasks, c.PhotoTasksIssued, c.AnnotationTasksIssued)
	case st.PhotosProcessed != c.PhotosProcessed:
		return fmt.Errorf("photos processed: status %d, fold %d", st.PhotosProcessed, c.PhotosProcessed)
	case st.Covered != c.Covered:
		return fmt.Errorf("covered: status %v, fold %v", st.Covered, c.Covered)
	}
	return nil
}

// runCampaign runs one campaign against its own server process. after,
// when set, runs on the finished server before it stops.
func (b *bench) runCampaign(ctx context.Context, wd *world, spec campaignSpec, hc *http.Client, rec *wireRecorder,
	after func(srv *serverProc) error) (campaignResult, error) {
	srv, workerID, setup, err := b.campaignServer(ctx, wd, hc)
	if err != nil {
		return campaignResult{}, err
	}
	defer hc.CloseIdleConnections()
	cpu0, err := srv.cpuSeconds()
	var res campaignResult
	if err == nil {
		res, err = driveCampaign(client.New(srv.base, hc), wd, spec, workerID, rec)
	}
	if err == nil {
		var cpu1 float64
		cpu1, err = srv.cpuSeconds()
		res.cpu = cpu1 - cpu0
	}
	if err == nil {
		err = finishCampaign(hc, srv.base, wd, &res)
	}
	if err == nil {
		res.rssMB, err = srv.peakRSSMB()
	}
	if err == nil && after != nil {
		err = after(srv)
	}
	res.setup = setup
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("server stop: %w", stopErr)
	}
	return res, err
}

func getBody(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func getJSON(hc *http.Client, url string, out any) error {
	body, err := getBody(hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// workDir returns a fresh scratch directory for one run's journals,
// snapshots and server logs.
func workDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
