package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"snaptask/internal/campaign"
	"snaptask/internal/client"
	"snaptask/internal/dispatch"
	"snaptask/internal/events"
	"snaptask/internal/server"
	"snaptask/internal/telemetry"
)

// The traced run replays a workload's inputs in-process: the same
// campaign manager the server binary builds, with the same settings,
// driven through the same client code over a transport that calls its
// ServeHTTP directly. Layers are split by the stage spans the program
// records (locate.*, claim.*, sfm.*, sor.*, map.*, taskgen, annotation.*),
// read as sum/count deltas of snaptask_ingest_stage_duration_seconds.
// Work the program does not time — decoding an upload, encoding the map
// and status snapshots — is timed by calling the same public DTO code from
// here, outside the handler's own time. The same replay runs twice,
// without and with these calls; the difference in the round trips the
// client sees is the tracing overhead.

// handlerTransport serves each request in-process and records the time
// ServeHTTP took, the handler time, in rec.
type handlerTransport struct {
	h   http.Handler
	rec *wireRecorder
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(w, req)
	d := time.Since(start)
	if ep := endpointOf(req.URL.Path); ep != "" {
		t.rec.record(ep, w.Code, d, req.ContentLength, int64(w.Body.Len()))
	}
	return w.Result(), nil
}

// layerTimes accumulates the benchmark's own per-layer timings.
type layerTimes struct {
	mu sync.Mutex
	d  map[string]samples
}

func newLayerTimes() *layerTimes { return &layerTimes{d: map[string]samples{}} }

func (l *layerTimes) add(name string, d time.Duration) {
	l.mu.Lock()
	l.d[name] = append(l.d[name], d)
	l.mu.Unlock()
}

func (l *layerTimes) get(name string) samples {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(samples(nil), l.d[name]...)
}

// photoStages are the top-level stage spans of a photo batch; an
// annotation batch runs annotationStages instead, whose reconstruct span
// holds the sfm.* spans of its own registration.
var (
	photoStages      = []string{"sfm.match", "sfm.seed", "sfm.register_sweep", "sfm.triangulate", "sor", "map.obstacles", "map.cast", "map.merge", "taskgen"}
	annotationStages = []string{"annotation.bounds", "annotation.reconstruct", "sor", "map.obstacles", "map.cast", "map.merge", "taskgen"}
)

// layerTransport wraps the in-process transport. Around each request, and
// outside the handler time handlerTransport records, it times the server
// layer's public decode and encode of the request and answer DTOs. For
// each upload it also reads the metrics registry before and after, so the
// layers the upload ran (its top-level stage spans and journal fsyncs)
// are attributed to it exactly: the campaign worker sends one request at a
// time.
type layerTransport struct {
	base http.RoundTripper
	srv  *server.Server
	reg  *telemetry.Registry
	lt   *layerTimes
}

func (t *layerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpointOf(req.URL.Path)
	var before expo
	if ep == "upload" {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		stages := photoStages
		if req.URL.Path == "/v1/photos" {
			var u server.UploadRequest
			_ = json.Unmarshal(body, &u)
		} else {
			var a server.AnnotateRequest
			_ = json.Unmarshal(body, &a)
			stages = annotationStages
		}
		decode := time.Since(start)
		t.lt.add("decode_upload", decode)
		before = parseExpo(t.reg.Expose())
		defer func() {
			after := parseExpo(t.reg.Expose())
			layers := decode + after.delta(before, "snaptask_events_journal_fsync_seconds_sum")
			for _, st := range stages {
				layers += after.delta(before, stageSum, `stage="`+st+`"`)
			}
			t.lt.add("upload_layers", layers)
		}()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch ep {
	case "map":
		start := time.Now()
		_, _ = json.Marshal(t.srv.Snapshot().Map)
		t.lt.add("encode_map", time.Since(start))
	case "status":
		start := time.Now()
		_, _ = json.Marshal(t.srv.Snapshot().Status)
		t.lt.add("encode_status", time.Since(start))
	}
	return resp, nil
}

// inproc is one in-process server stack: the manager, its default
// campaign and the telemetry both report into.
type inproc struct {
	tel  *telemetry.Telemetry
	wd   *telemetry.Watchdog
	mgr  *campaign.Manager
	def  *campaign.Campaign
	dir  string
	base string
}

// newInproc builds the stack snaptask-server builds from its defaults,
// journaled under dir.
func newInproc(spec campaignSpec, dir string) (*inproc, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	tel := telemetry.New(logger, 64)
	wd := telemetry.NewWatchdog(tel.Registry, telemetry.WatchdogConfig{
		Interval: time.Second, StallThreshold: 5 * time.Second, Logger: logger})
	mgr, err := campaign.NewManager(campaign.ManagerConfig{
		JournalRoot:     dir,
		SegmentMaxBytes: 4 << 20,
		Checkpoint:      events.CheckpointPolicy{Interval: time.Minute, Every: 4096},
		Admission: &server.AdmissionConfig{MaxQueue: 256, MaxBodyBytes: 8 << 20,
			WriteTimeout: 30 * time.Second},
		LeaseTTL:  60 * time.Second,
		Telemetry: tel,
		Watchdog:  wd,
		SLO:       true,
	})
	if err != nil {
		return nil, err
	}
	def, err := mgr.CreateDefault(campaign.Spec{Venue: venueName, Seed: spec.World, Margin: 12, Partitions: 1}, nil, "")
	if err != nil {
		_ = mgr.Close()
		return nil, err
	}
	wd.Start()
	return &inproc{tel: tel, wd: wd, mgr: mgr, def: def, dir: dir, base: "http://inproc"}, nil
}

func (p *inproc) close() error {
	p.wd.Stop()
	return p.mgr.Close()
}

// expo is a parsed Prometheus text exposition: series key to value.
type expo map[string]float64

func parseExpo(text string) expo {
	out := expo{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of family name whose labels contain each of the
// given label pairs (`stage="sfm.match"`).
func (e expo) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range e {
		fam, lab, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// stageSum is the family of the stage spans' summed seconds.
const stageSum = "snaptask_ingest_stage_duration_seconds_sum"

func seconds(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// delta is how much the matching series grew from before to e, read as
// seconds.
func (e expo) delta(before expo, name string, labels ...string) time.Duration {
	return seconds(e.sum(name, labels...) - before.sum(name, labels...))
}

// spanSum is the total time spent in one stage span.
func (e expo) spanSum(stage string) time.Duration {
	return seconds(e.sum(stageSum, `stage="`+stage+`"`))
}

// spanMean is the mean duration of one stage span, from the stage
// histogram's sum and count.
func (e expo) spanMean(stage string) time.Duration {
	return e.histMean("snaptask_ingest_stage_duration_seconds", `stage="`+stage+`"`)
}

func (e expo) histMean(name string, labels ...string) time.Duration {
	return seconds(e.valueMean(name, labels...))
}

// valueMean is a histogram's mean observation: its sum over its count.
func (e expo) valueMean(name string, labels ...string) float64 {
	n := e.sum(name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return e.sum(name+"_sum", labels...) / n
}

// passResult is one in-process replay.
type passResult struct {
	camps   []campaignResult
	handler *wireRecorder // handler times (ServeHTTP alone) and message sizes
	client  *wireRecorder // round trips as the client sees them
	worker  *wireRecorder // the campaign worker's share of the round trips
	lt      *layerTimes
	loop    *loopResult
	expo    expo // the registry at the end of the replay's requests
	sim     time.Duration
	status  server.StatusResponse
	journal int64 // journal bytes on disk
	pubKB   float64
	ckpt    time.Duration
	route   time.Duration
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

// replay runs one in-process pass of the workload: its first campaign,
// then the workload's navigation traffic on the finished model.
func (b *bench) replay(ctx context.Context, workload string, traced bool) (*passResult, error) {
	spec := serveSpec
	if workload == "campaign" {
		spec = campaignRuns[0]
	}
	wd, err := newWorld(spec.World)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.work, "inproc-")
	if err != nil {
		return nil, err
	}
	p, err := newInproc(spec, dir)
	if err != nil {
		return nil, err
	}
	defer p.close()
	res := &passResult{handler: newWireRecorder(), client: newWireRecorder(), worker: newWireRecorder(), lt: newLayerTimes()}
	var tr http.RoundTripper = handlerTransport{h: p.mgr, rec: res.handler}
	if traced {
		tr = &layerTransport{base: tr, srv: p.def.Server(), reg: p.tel.Registry, lt: res.lt}
	}
	hc := &http.Client{Transport: &timedTransport{base: tr, rec: res.client}}
	whc := &http.Client{Transport: &timedTransport{base: &timedTransport{base: tr, rec: res.client}, rec: res.worker}}

	runtime.GC()
	runtime.ReadMemStats(&res.mem0)
	cl := client.New(p.base, whc)
	ent := wd.v.Entrance()
	reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{X: ent.X, Y: ent.Y, HasLoc: true})
	if err != nil {
		return nil, err
	}
	camp, err := driveCampaign(cl, wd, spec, reg.ID, res.worker)
	if err != nil {
		return nil, err
	}
	res.sim = camp.wall - camp.backend
	if err := finishCampaign(hc, p.base, wd, &camp); err != nil {
		return nil, err
	}
	res.camps = append(res.camps, camp)
	if err := getJSON(hc, p.base+"/v1/status", &res.status); err != nil {
		return nil, err
	}
	res.journal = dirBytes(dir)

	var pool []locateInput
	if workload == "serve" {
		pool, err = locatePool(wd, p.def.Server().Snapshot().Features, derive(b.seed, "pool", 0), poolSize, nil, 0)
	} else {
		pool, err = entrancePool(wd, spec, derive(b.seed, "pool", 0))
	}
	if err != nil {
		return nil, err
	}
	dur := b.seconds / 2
	nc := &navClient{hc: hc, base: p.base, pool: pool}
	res.loop = openLoop(ctx, schedule(derive(b.seed, workload, 0), readRate, dur, len(pool)), dur, b.procs, nc.do)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.expo = parseExpo(p.tel.Registry.Expose())
	runtime.ReadMemStats(&res.mem1)
	if traced {
		if err := res.microLayers(p); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// microLayers times the layers a replay cannot split by itself, by calling
// their public functions on the finished campaign: the allocations of a
// publish (through Server.RegisterWorker, which registers and
// republishes), a checkpoint, journal appends, and the campaign router
// (Manager.ServeHTTP against the shard's own).
func (r *passResult) microLayers(p *inproc) error {
	srv := p.def.Server()
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := srv.RegisterWorker(dispatchWorker(i)); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	r.pubKB = float64(after.TotalAlloc-before.TotalAlloc) / n / 1024

	start := time.Now()
	if err := srv.Checkpoint(); err != nil {
		return err
	}
	r.ckpt = time.Since(start)

	// Journal appends, on a scratch journal so the campaign's stays intact.
	jdir, err := os.MkdirTemp(p.dir, "append-")
	if err != nil {
		return err
	}
	jl, err := events.OpenDir(jdir, telemetry.NewEventMetrics(nil), events.DirStoreOptions{}, events.CheckpointPolicy{})
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		start := time.Now()
		jl.Emit(events.Event{Kind: events.KindBatchAccepted, TaskID: i, Photos: 45, CoverageCells: 1000 + i})
		r.lt.add("append", time.Since(start))
	}
	if err := jl.Commit(); err != nil {
		return err
	}
	if err := jl.Close(); err != nil {
		return err
	}

	// /readyz is served by the shard behind the manager's default-campaign
	// alias, so the difference is the manager's routing alone.
	var viaMgr, direct samples
	for i := 0; i < 200; i++ {
		for _, h := range []http.Handler{p.mgr, srv} {
			req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
			w := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(w, req)
			d := time.Since(start)
			if w.Code != http.StatusOK {
				return fmt.Errorf("route probe: status %d", w.Code)
			}
			if h == http.Handler(p.mgr) {
				viaMgr = append(viaMgr, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	r.route = viaMgr.quantile(0.5) - direct.quantile(0.5)
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(info.Name(), ".jsonl") {
			n += info.Size()
		}
		return nil
	})
	return n
}

func dispatchWorker(i int) dispatch.WorkerInfo {
	return dispatch.WorkerInfo{ID: fmt.Sprintf("publish-probe-%d", i)}
}

// traced runs the workload's in-process replay twice, untraced then
// traced, checks both, and reports the per-layer metrics.
func (b *bench) traced(ctx context.Context, workload string) (map[string]metric, int, int, error) {
	plain, err := b.replay(ctx, workload, false)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("untraced replay: %w", err)
	}
	tr, err := b.replay(ctx, workload, true)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("traced replay: %w", err)
	}
	b.checkRepeats(append(plain.camps, tr.camps...))
	attempted, failed := 0, 0
	for _, r := range []*passResult{plain, tr} {
		a, f := r.client.totals()
		attempted += a
		failed += f
		if r.loop != nil && r.loop.checkErr != nil {
			b.checkf("%s in-process navigation: %v", workload, r.loop.checkErr)
		}
	}
	return b.layerMetrics(plain, tr), attempted, failed, nil
}

// layerMetrics derives the per-layer metrics from the traced pass, and
// the tracing overhead from both.
func (b *bench) layerMetrics(plain, tr *passResult) map[string]metric {
	out := map[string]metric{}
	msm := func(name string, d time.Duration) { out[name] = metric{ms(d), "ms"} }
	usm := func(name string, d time.Duration) { out[name] = metric{float64(d) / float64(time.Microsecond), "us"} }
	cnt := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	e := tr.expo
	perMsg := func(ep string, recv bool) float64 {
		s := tr.handler.get(ep)
		if s.attempts == 0 {
			return 0
		}
		n := s.sentB
		if recv {
			n = s.recvB
		}
		return float64(n) / float64(s.attempts) / 1024
	}
	// remainder is what an endpoint's handler time leaves after the
	// layers under it, in sums over the same requests, per request.
	remainder := func(ep string, layers ...time.Duration) time.Duration {
		s := tr.handler.get(ep)
		if s.attempts == 0 {
			return 0
		}
		rest := s.lat.sum()
		for _, l := range layers {
			rest -= l
		}
		return rest / time.Duration(s.attempts)
	}

	// loadgen: the generator itself.
	if tr.loop != nil {
		msm("loadgen.late_p99_ms", tr.loop.late.quantile(0.99))
	} else {
		msm("loadgen.late_p99_ms", 0)
	}
	cnt("loadgen.sim_s", tr.sim.Seconds(), "s")

	// wire: bytes per message.
	cnt("wire.upload_kb", perMsg("upload", false), "KB")
	cnt("wire.locate_kb", perMsg("locate", false), "KB")
	cnt("wire.map_kb", perMsg("map", true), "KB")

	// server: decode/encode, whole handlers in-process, publish and
	// admission.
	msm("server.decode_upload_ms", tr.lt.get("decode_upload").mean())
	usm("server.decode_locate_us", e.spanMean("locate.decode"))
	usm("server.locate_match_us", e.spanMean("locate.match"))
	usm("server.encode_map_us", tr.lt.get("encode_map").mean())
	usm("server.encode_status_us", tr.lt.get("encode_status").mean())
	for _, ep := range []string{"locate", "map", "claim", "upload"} {
		msm("server.handler_"+ep+"_ms", tr.handler.get(ep).lat.quantile(0.5))
	}
	// A granted claim publishes (and checks whether a checkpoint is due)
	// inside its claim.publish span.
	msm("server.publish_ms", e.spanMean("claim.publish"))
	cnt("server.publish_kb", tr.pubKB, "KB")
	ops, _ := tr.worker.totals()
	cnt("server.publishes_per_op", e.sum("snaptask_snapshot_publishes_total")/float64(max(ops, 1)), "ratio")
	msm("server.admission_wait_ms", e.histMean("snaptask_admission_queue_wait_seconds"))

	// campaign routing and dispatch.
	usm("campaign.route_us", tr.route)
	usm("dispatch.claim_us", e.spanMean("claim.assign"))
	granted := e.sum("snaptask_dispatch_claims_total", `result="granted"`)
	answered := granted + e.sum("snaptask_dispatch_claims_total", `result="no_task"`) +
		e.sum("snaptask_dispatch_claims_total", `result="covered"`)
	cnt("dispatch.granted_ratio", granted/max(answered, 1), "ratio")

	// core: per batch kind, and the campaign's efficiency.
	msm("core.batch_ms", e.histMean("snaptask_ingest_batch_duration_seconds", `kind="photo_batch"`))
	msm("core.bootstrap_ms", e.histMean("snaptask_ingest_batch_duration_seconds", `kind="bootstrap"`))
	msm("core.annotation_ms", e.histMean("snaptask_ingest_batch_duration_seconds", `kind="annotation"`))
	photos := e.sum("snaptask_ingest_photos_total")
	blurry := e.sum("snaptask_ingest_blurry_rejected_total")
	unreg := e.sum("snaptask_ingest_unregistered_total")
	sharp := photos - blurry
	cnt("core.registered_ratio", (sharp-unreg)/max(sharp, 1), "ratio")
	var lc events.Counters
	if tr.status.Lifecycle != nil {
		lc = *tr.status.Lifecycle
	}
	tasks := float64(tr.status.PhotoTasks + tr.status.AnnotationTasks)
	batches := e.sum("snaptask_ingest_batches_total")
	cnt("core.cells_per_task", float64(lc.CoverageCells)/max(tasks, 1), "cells")
	cnt("core.rejected_batches", float64(lc.RejectedBlur+lc.RejectedRegistration+lc.RejectedNoGrowth+lc.RejectedError), "count")
	cnt("taskgen.blur_retries", float64(lc.TasksRetried), "count")
	cnt("taskgen.escalations", float64(lc.TasksEscalated), "count")

	// sfm, pointcloud, mapping, taskgen, annotation: stage spans.
	for _, s := range []string{"match", "seed", "register_sweep", "triangulate"} {
		msm("sfm."+s+"_ms", e.spanMean("sfm."+s))
	}
	cnt("sfm.views", float64(tr.status.Views), "count")
	cnt("sfm.points", float64(tr.status.Points), "count")
	cnt("sfm.new_points_per_batch", float64(tr.status.Points)/max(batches, 1), "count")
	msm("pointcloud.sor_stale_scan_ms", e.spanMean("sor.stale_scan"))
	msm("pointcloud.sor_knn_ms", e.spanMean("sor.knn"))
	cnt("pointcloud.outliers", e.sum("snaptask_model_sor_outliers"), "count")
	// The SOR stage's self time: its span minus its child spans.
	msm("core.sor_self_ms", e.spanMean("sor")-e.spanMean("sor.stale_scan")-e.spanMean("sor.knn"))
	for _, s := range []string{"obstacles", "cast", "merge"} {
		msm("mapping."+s+"_ms", e.spanMean("map."+s))
	}
	msm("taskgen.step_ms", e.spanMean("taskgen"))
	msm("annotation.bounds_ms", e.spanMean("annotation.bounds"))
	msm("annotation.reconstruct_ms", e.spanMean("annotation.reconstruct"))

	// events: journal append, fsync, checkpoint, bytes.
	usm("events.append_us", tr.lt.get("append").mean())
	msm("events.fsync_ms", e.histMean("snaptask_events_journal_fsync_seconds"))
	msm("events.checkpoint_ms", tr.ckpt)
	cnt("events.bytes_per_batch", float64(tr.journal)/max(batches, 1), "B")

	// nav.
	usm("nav.localize_us", e.spanMean("locate.localize"))
	cnt("nav.matched_features", e.valueMean("snaptask_locate_matched_features"), "count")

	// Go runtime of the in-process replay.
	cnt("runtime.heap_mb", float64(tr.mem1.HeapAlloc)/(1<<20), "MB")
	cnt("runtime.gc_cycles", float64(tr.mem1.NumGC-tr.mem0.NumGC), "count")
	msm("runtime.gc_pause_ms", time.Duration(tr.mem1.PauseTotalNs-tr.mem0.PauseTotalNs))

	// Per endpoint, what the handler time leaves after its layers.
	msm("server.upload_unattributed_ms", remainder("upload", tr.lt.get("upload_layers").sum()))
	msm("server.claim_unattributed_ms", remainder("claim",
		e.spanSum("claim.lock"), e.spanSum("claim.assign"), e.spanSum("claim.publish")))
	usm("server.locate_unattributed_us", remainder("locate",
		e.spanSum("locate.decode"), e.spanSum("locate.match"), e.spanSum("locate.localize")))
	usm("server.map_unattributed_us", remainder("map", tr.lt.get("encode_map").sum()))

	// Tracing overhead: the traced minus the untraced round trip, as the
	// client sees it.
	for _, ep := range []string{"locate", "map", "claim", "upload"} {
		msm("trace.overhead_"+ep+"_ms", tr.client.get(ep).lat.quantile(0.5)-plain.client.get(ep).lat.quantile(0.5))
	}
	return out
}
