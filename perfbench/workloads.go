package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snaptask/internal/client"
	"snaptask/internal/core"
	"snaptask/internal/pointcloud"
	"snaptask/internal/server"
)

// Fixed workload settings. Changing any of them changes the benchmark.
const (
	// readRate is the rate of the measured navigation traffic, serve's and
	// the campaign workload's read probe: under a third of the rate the
	// server saturates at, so the generator's nproc connections seldom
	// queue.
	readRate = 250.0
	poolSize = 256 // locate photos per run

	// lateLimit is how late (p99) the generator may release sends before
	// a run is flagged invalid: beyond it the generator, not the server,
	// would be setting the latencies.
	lateLimit = 10 * time.Millisecond
)

// tailPct fixes, per workload and endpoint, the percentile each printed
// latency tail reports (see chunkTail): the highest that leaves at least
// eight chunks in a 16 s run, so no single stall of the shared machine
// sets it; where the sample is too small for that (uploads, and the
// campaign worker's claims), the highest it supports at all.
var tailPct = map[string]map[string]float64{
	"serve":    {"locate": 95, "map": 80, "claim": 70, "upload": 60},
	"campaign": {"locate": 95, "map": 80, "claim": 85, "upload": 85},
}

// collected is everything one run gathers for its end-to-end metrics.
type collected struct {
	workload  string
	setups    []float64 // seconds per server start
	rss       []float64 // MB per measured server process
	camps     []campaignResult
	worker    *wireRecorder // the campaign worker's requests
	nav       [len(opNames)]samples
	readCPU   float64 // server CPU seconds of the read phase
	readOps   int     // operations the read phase sent
	attempted int
	failed    int
}

func (c *collected) addLoop(r *loopResult) {
	for k := range r.lat {
		c.nav[k] = append(c.nav[k], r.lat[k]...)
	}
}

// checkRepeats checks that every repeated campaign spec reproduced the
// same /v1/map bytes and the same tasks issued.
func (b *bench) checkRepeats(camps []campaignResult) {
	first := map[campaignSpec]campaignResult{}
	repeats := 0
	for _, r := range camps {
		f, ok := first[r.spec]
		if !ok {
			first[r.spec] = r
			continue
		}
		repeats++
		if !bytes.Equal(f.mapJSON, r.mapJSON) {
			b.checkf("campaign %+v: repeated run served a different /v1/map", r.spec)
		}
		if f.tasks != r.tasks {
			b.checkf("campaign %+v: repeated run issued %d tasks, first %d", r.spec, r.tasks, f.tasks)
		}
	}
	if repeats == 0 {
		b.checkf("no campaign was repeated, so determinism went unchecked")
	}
}

// metrics turns a run's record into the end-to-end metrics. Server CPU
// time, not latency, carries the speed figures: on a shared VM the
// hypervisor's load moved every latency of a run by up to 2.7x, while the
// CPU time the server spent per operation stayed within a few percent
// (see README.md). The latencies are printed for reading, above the
// result line.
func (b *bench) metrics(c *collected) map[string]metric {
	tails := tailPct[c.workload]
	lat := func(name string, s samples) {
		p := tails[name]
		tail, chunks := chunkTail(s, p)
		fmt.Printf("latency %-6s p50 %8.3f ms, p%v %8.3f ms (median of %d chunks of %d; %d samples)\n",
			name, ms(s.quantile(0.5)), p, ms(tail), chunks, chunkLen(p), len(s))
		if chunks == 0 {
			fmt.Printf("latency %-6s p%v needs %d samples; %d support p%v at most\n", name, p, chunkLen(p), len(s), highestTail(len(s)))
		}
	}
	lat("locate", c.nav[opLocate])
	lat("map", c.nav[opMap])
	if c.workload == "serve" {
		lat("claim", c.nav[opClaim])
	} else {
		lat("claim", c.worker.get("claim").lat)
	}
	lat("upload", c.worker.get("upload").lat)
	// Means over every campaign of the run: which campaigns a run does is
	// fixed by its workload, so the mix is the same every run.
	var cpu, wait, cov, tasks []float64
	for _, r := range c.camps {
		cpu = append(cpu, r.cpu)
		wait = append(wait, r.backend.Seconds())
		cov = append(cov, r.coverage)
		tasks = append(tasks, float64(r.tasks))
	}
	fmt.Printf("campaign backend wait %.3f s (mean)\n", mean(wait))
	return map[string]metric{
		"setup_s":        {median(c.setups), "s"},
		"read_cpu_ms":    {1000 * c.readCPU / float64(max(c.readOps, 1)), "ms"},
		"campaign_cpu_s": {mean(cpu), "s"},
		"coverage_pct":   {mean(cov), "%"},
		"tasks_issued":   {mean(tasks), "count"},
		"rss_peak_mb":    {median(c.rss), "MB"},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// guardLoop applies the validity guards to an open-loop phase and records
// its checks: the generator must keep to its schedule, and the server must
// keep up with it.
func (b *bench) guardLoop(name string, r *loopResult) {
	if late := r.late.quantile(0.99); late > lateLimit {
		b.invalidf("%s: generator released sends %.2f ms late at p99 (limit %v)", name, ms(late), lateLimit)
	}
	if r.grew() {
		b.invalidf("%s: the backlog grew: the server fell behind the schedule", name)
	}
	if r.checkErr != nil {
		b.checkf("%s: %v", name, r.checkErr)
	}
}

// readPhase runs the measured navigation traffic against srv for the
// run's budget and records its latencies, outcomes and the server CPU time
// it cost.
func (b *bench) readPhase(ctx context.Context, name string, srv *serverProc, nc *navClient, c *collected) error {
	runtime.GC() // the inputs' garbage must not be collected during the phase
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	r := openLoop(ctx, schedule(derive(b.seed, name, 0), readRate, b.seconds, len(nc.pool)), b.seconds, b.procs, nc.do)
	if err := ctx.Err(); err != nil {
		return err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	b.guardLoop(name, r)
	c.addLoop(r)
	c.attempted += r.attempts
	c.failed += r.failures
	c.readCPU, c.readOps = cpu1-cpu0, r.attempts
	return nil
}

// modelFeatures loads a /v1/snapshot body in-process and returns the
// model's feature index, the set a locate is matched against.
func modelFeatures(wd *world, snap []byte) (map[uint64]bool, error) {
	sys, err := core.LoadSystem(bytes.NewReader(snap), wd.v, wd.w)
	if err != nil {
		return nil, err
	}
	return cloudFeatures(sys), nil
}

func cloudFeatures(sys *core.System) map[uint64]bool {
	feats := map[uint64]bool{}
	sys.EachCloudPoint(func(p pointcloud.Point) {
		if p.FeatureID != 0 {
			feats[p.FeatureID] = true
		}
	})
	return feats
}

// entrancePool returns a locate pool around the entrance, checked against
// the model a campaign's bootstrap alone builds, so every locate can be
// answered from the moment the bootstrap upload lands.
func entrancePool(wd *world, spec campaignSpec, seed int64) ([]locateInput, error) {
	boot, err := core.BootstrapCapture(wd.w, wd.v, wd.intr, rand.New(rand.NewSource(spec.Agent)))
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(wd.v, wd.w, core.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := sys.ProcessBootstrap(boot, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	ent := wd.v.Entrance()
	return locatePool(wd, cloudFeatures(sys), seed, poolSize, &ent, 2.5)
}

// serve: one fixed campaign builds the finished library model, then a
// server restarted from its snapshot answers open-loop navigation traffic
// for the run's budget. No uploads reach the serving
// process.
func (b *bench) serve(ctx context.Context) (map[string]metric, int, int, error) {
	c := &collected{workload: "serve", worker: newWireRecorder()}
	wd, err := newWorld(serveSpec.World)
	if err != nil {
		return nil, 0, 0, err
	}
	whc := newHTTPClient(1, &b.gauge, c.worker)
	var snap []byte
	camp, err := b.runCampaign(ctx, wd, serveSpec, whc, c.worker, func(srv *serverProc) error {
		var err error
		snap, err = getBody(whc, srv.base+"/v1/snapshot")
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build the served model: %w", err)
	}
	c.camps = append(c.camps, camp)
	snapPath := filepath.Join(b.work, "serve.snap")
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		return nil, 0, 0, err
	}
	feats, err := modelFeatures(wd, snap)
	if err != nil {
		return nil, 0, 0, err
	}
	pool, err := locatePool(wd, feats, derive(b.seed, "pool", 0), poolSize, nil, 0)
	if err != nil {
		return nil, 0, 0, err
	}

	nrec := newWireRecorder()
	nhc := newHTTPClient(b.procs, &b.gauge, nrec)
	// Set up three times; the median is setup_s and the last one serves.
	var srv *serverProc
	var mapRef []byte
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		srv, err = startServer(b.serverBin, b.procs, b.serverLog,
			"-venue", venueName, "-seed", fmt.Sprint(serveSpec.World), "-load", snapPath)
		if err != nil {
			return nil, 0, 0, err
		}
		if err = srv.waitReady(ctx, nhc, time.Minute); err == nil {
			_, err = client.New(srv.base, nhc).RegisterWorker(server.RegisterWorkerRequest{})
		}
		if err == nil {
			mapRef, err = getBody(nhc, srv.base+"/v1/map")
		}
		if err == nil {
			err = warmLocate(ctx, &navClient{hc: nhc, base: srv.base, pool: pool})
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
		if err != nil {
			_ = srv.stop()
			return nil, 0, 0, fmt.Errorf("serve set-up: %w", err)
		}
		if !bytes.Equal(mapRef, camp.mapJSON) {
			b.checkf("server restarted from the snapshot serves a different /v1/map than the campaign built")
		}
		if i < 2 {
			if err := srv.stop(); err != nil {
				return nil, 0, 0, err
			}
			nhc.CloseIdleConnections()
		}
	}
	defer srv.stop()
	nc := &navClient{hc: nhc, base: srv.base, pool: pool, mapRef: mapRef}

	if err := b.readPhase(ctx, "serve", srv, nc, c); err != nil {
		return nil, 0, 0, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, 0, 0, err
	}
	c.rss = append(c.rss, rss)
	if err := srv.stop(); err != nil {
		return nil, 0, 0, fmt.Errorf("server stop: %w", err)
	}
	wa, wf := c.worker.totals()
	return b.metrics(c), c.attempted + wa, c.failed + wf, nil
}

// warmLocate sends one locate and requires a checked 200.
func warmLocate(ctx context.Context, nc *navClient) error {
	status, err := nc.do(ctx, arrival{op: opLocate})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("warm-up locate answered %d", status)
	}
	return err
}

// campaignRuns is the campaign workload's fixed list of library
// campaigns: the same one twice, so every run checks that a campaign is
// deterministic. It escalates to three annotation tasks, so the annotation
// path runs too. Campaign inputs do not come from the seed: across seeds a
// library campaign ran 29 to 48 tasks, which alone would spread the
// campaign figures and tasks_issued over nearly the whole bound. The seed
// varies the read probe.
var campaignRuns = []campaignSpec{{46, 46}, {46, 46}}

// campaign: the campaigns of campaignRuns back to back, each against a
// fresh journaled server, with one lease-holding worker on one connection.
// After the last one serve's read traffic probes its finished model for
// the run's budget.
func (b *bench) campaign(ctx context.Context) (map[string]metric, int, int, error) {
	c := &collected{workload: "campaign", worker: newWireRecorder()}
	whc := newHTTPClient(1, &b.gauge, c.worker)
	rhc := newHTTPClient(b.procs, &b.gauge, newWireRecorder())
	for i, spec := range campaignRuns {
		wd, err := newWorld(spec.World)
		if err != nil {
			return nil, 0, 0, err
		}
		var reads func(srv *serverProc) error
		if i == len(campaignRuns)-1 {
			reads = func(srv *serverProc) error {
				pool, err := entrancePool(wd, spec, derive(b.seed, "pool", i))
				if err != nil {
					return err
				}
				whc.CloseIdleConnections()
				defer rhc.CloseIdleConnections()
				return b.readPhase(ctx, "campaign", srv, &navClient{hc: rhc, base: srv.base, pool: pool}, c)
			}
		}
		camp, err := b.runCampaign(ctx, wd, spec, whc, c.worker, reads)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("campaign %d %+v: %w", i, spec, err)
		}
		fmt.Printf("campaign %d %+v: %d tasks, server CPU %.3f s, backend wait %.3f s, wall %.3f s\n",
			i, spec, camp.tasks, camp.cpu, camp.backend.Seconds(), camp.wall.Seconds())
		c.camps = append(c.camps, camp)
		c.setups = append(c.setups, camp.setup.Seconds())
		c.rss = append(c.rss, camp.rssMB)
	}
	b.checkRepeats(c.camps)
	wa, wf := c.worker.totals()
	return b.metrics(c), c.attempted + wa, c.failed + wf, nil
}
