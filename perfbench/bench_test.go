package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		p  float64
		n  int
		ok bool
	}{
		{99, 1000, true}, {99, 999, false},
		{95, 200, true}, {95, 199, false},
		{50, 20, true}, {50, 19, false},
		{85, 67, true}, {85, 66, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.p, c.n); got != c.ok {
			t.Errorf("tailSupported(p%v, n=%d) = %v, want %v", c.p, c.n, got, c.ok)
		}
	}
	for n, want := range map[int]float64{9: 0, 19: 0, 20: 50, 31: 60, 100: 90, 400: 97.5, 1000: 99, 10000: 99.9} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestChunkTail(t *testing.T) {
	for p, want := range map[float64]int{99: 1000, 95: 200, 90: 100, 85: 67, 80: 50, 60: 25} {
		if got := chunkLen(p); got != want {
			t.Errorf("chunkLen(p%v) = %d, want %d", p, got, want)
		}
	}
	// Four chunks of 100 with p90 = 90 each, plus one chunk whose stall
	// puts its p90 at 1000: the median ignores the stall.
	var s samples
	for c := 0; c < 5; c++ {
		for i := 1; i <= 100; i++ {
			d := time.Duration(i)
			if c == 2 && i > 50 {
				d = 1000
			}
			s = append(s, d)
		}
	}
	if got, n := chunkTail(s, 90); got != 90 || n != 5 {
		t.Errorf("chunkTail = %v over %d chunks, want 90 over 5", got, n)
	}
	// A short remainder joins the last chunk instead of forming its own.
	if _, n := chunkTail(s[:250], 90); n != 2 {
		t.Errorf("250 samples at p90 made %d chunks, want 2", n)
	}
	if got, n := chunkTail(s[:40], 90); n != 0 || got != s[:40].quantile(0.9) {
		t.Errorf("too few samples: got %v over %d chunks, want the plain p90 over 0", got, n)
	}
}

func TestTailPercentilesAreOnTheLadder(t *testing.T) {
	on := map[float64]bool{}
	for _, p := range tailLadder {
		on[p] = true
	}
	for wl, eps := range tailPct {
		for ep, p := range eps {
			if !on[p] {
				t.Errorf("%s %s: p%v is not a ladder percentile", wl, ep, p)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestMetricNameGrammar(t *testing.T) {
	good := []string{"setup_s", "locate_p50_ms", "sfm.match_ms", "a", "9lives", "x-y.z_1", strings.Repeat("a", 64)}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "slash/no", "ünïcode", strings.Repeat("a", 65), "semi;colon"}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true, want false", n)
		}
	}
	if err := checkMetricNames(map[string]metric{"ok_ms": {1, "ms"}}); err != nil {
		t.Errorf("valid metric rejected: %v", err)
	}
	for _, m := range []map[string]metric{
		{"bad name": {1, "ms"}},
		{"ok": {1, "m s"}},
		{"ok": {1, ""}},
	} {
		if err := checkMetricNames(m); err == nil {
			t.Errorf("checkMetricNames(%v) accepted a malformed metric", m)
		}
	}
}

// The declared benchmark must use only names and units of the grammar.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ms := map[string]metric{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if _, dup := ms[m.Name]; dup {
			t.Errorf("metric %q declared twice", m.Name)
		}
		ms[m.Name] = metric{1, m.Unit}
	}
	if err := checkMetricNames(ms); err != nil {
		t.Error(err)
	}
	for _, w := range spec.Workloads {
		if !validName(w.Name) {
			t.Errorf("workload name %q breaks the grammar", w.Name)
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	cases := []struct {
		name                             string
		dueMid, doneMid, dueEnd, doneEnd int
		grew                             bool
	}{
		{"keeping up", 500, 498, 1000, 998, false},
		{"in-flight wobble", 500, 498, 1000, 996, false},
		{"falling behind", 500, 480, 1000, 900, true},
		{"slack is 5% of the second half", 500, 490, 1000, 965, false},
		{"just past the slack", 500, 490, 1000, 960, true},
		{"tiny rung uses the two-request floor", 10, 10, 20, 17, true},
	}
	for _, c := range cases {
		if got := backlogGrew(c.dueMid, c.doneMid, c.dueEnd, c.doneEnd); got != c.grew {
			t.Errorf("%s: backlogGrew = %v, want %v", c.name, got, c.grew)
		}
	}
}

// On a real open loop, a server slower than the offered rate shows a
// growing backlog and one with spare capacity does not.
func TestOpenLoopDetectsBacklog(t *testing.T) {
	const dur = 600 * time.Millisecond
	run := func(service time.Duration) *loopResult {
		sched := schedule(1, 200, dur, 1)
		return openLoop(context.Background(), sched, dur, 1, func(context.Context, arrival) (int, error) {
			time.Sleep(service)
			return 200, nil
		})
	}
	if r := run(200 * time.Microsecond); r.grew() {
		t.Errorf("spare capacity: backlog reported growing (mid %d/%d, end %d/%d)", r.doneMid, r.dueMid, r.doneEnd, r.dueEnd)
	}
	if r := run(15 * time.Millisecond); !r.grew() {
		t.Errorf("overloaded: backlog not reported growing (mid %d/%d, end %d/%d)", r.doneMid, r.dueMid, r.doneEnd, r.dueEnd)
	}
}

func TestStatCPUSeconds(t *testing.T) {
	// utime 250 and stime 17 ticks; the command name holds ") " itself.
	line := "4242 (snap ) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 17 0 0 20 0 9 0 100 0 0"
	got, err := statCPUSeconds(line)
	if err != nil || got != 2.67 {
		t.Errorf("statCPUSeconds = %v, %v; want 2.67", got, err)
	}
	if _, err := statCPUSeconds("4242 (snap) S 1"); err == nil {
		t.Error("a short line parsed")
	}
}

func TestStealPct(t *testing.T) {
	if got := stealPct(1000, 10, 2000, 60); got != 5 {
		t.Errorf("stealPct = %v, want 5", got)
	}
	if got := stealPct(1000, 10, 1000, 10); got != 0 {
		t.Errorf("no elapsed ticks: stealPct = %v, want 0", got)
	}
	if total, _ := cpuTimes(); total == 0 {
		t.Skip("/proc/stat unreadable here")
	}
}

func TestFailureClassification(t *testing.T) {
	cases := []struct {
		ep     string
		status int
		failed bool
	}{
		{"locate", 200, false}, {"locate", 422, true}, {"upload", 422, false},
		{"claim", 404, false}, {"claim", 429, true}, {"map", 0, true}, {"status", 503, true},
	}
	for _, c := range cases {
		if got := failed(c.ep, c.status); got != c.failed {
			t.Errorf("failed(%s, %d) = %v, want %v", c.ep, c.status, got, c.failed)
		}
	}
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	a := schedule(7, 300, 2*time.Second, 256)
	b := schedule(7, 300, 2*time.Second, 256)
	c := schedule(8, 300, 2*time.Second, 256)
	if len(a) == 0 || !equalSchedules(a, b) {
		t.Fatal("the same seed drew different schedules")
	}
	if equalSchedules(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}

	wd, err := newWorld(serveSpec.World)
	if err != nil {
		t.Fatal(err)
	}
	all := map[uint64]bool{}
	for _, f := range wd.w.Features() {
		all[f.ID] = true
	}
	p1, err := locatePool(wd, all, 7, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := locatePool(wd, all, 7, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := locatePool(wd, all, 8, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPools(p1, p2) {
		t.Fatal("the same seed captured different locate photos")
	}
	if equalPools(p1, p3) {
		t.Fatal("different seeds captured the same locate photos")
	}

	spec := campaignRuns[0]
	ew, err := newWorld(spec.World)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := entrancePool(ew, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := entrancePool(ew, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPools(e1, e2) {
		t.Fatal("the same seed built different entrance pools")
	}
}

// Every campaign run repeats a campaign, so every run checks determinism.
func TestCampaignRunsRepeatACampaign(t *testing.T) {
	seen := map[campaignSpec]bool{}
	repeated := false
	for _, c := range campaignRuns {
		repeated = repeated || seen[c]
		seen[c] = true
	}
	if !repeated {
		t.Error("campaignRuns repeats no campaign, so determinism would go unchecked")
	}
}

func equalSchedules(a, b []arrival) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPools(a, b []locateInput) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].truth != b[i].truth {
			return false
		}
	}
	return true
}

// Every run prints exactly the metrics BENCHMARK.json declares: all the
// end-to-end ones with -trace 0, all the per-layer ones with -trace 1.
func TestPrintedMetricsMatchTheDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: printed %d metrics, declared %d", what, len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			if !ok {
				t.Errorf("%s: %s declared but not printed", what, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s: %s printed in %s, declared in %s", what, w.Name, m.Unit, w.Unit)
			}
		}
	}
	b := &bench{}
	for wl := range tailPct {
		c := &collected{workload: wl, worker: newWireRecorder()}
		same(wl, b.metrics(c), spec.EndToEnd)
	}
	pass := func() *passResult {
		return &passResult{handler: newWireRecorder(), client: newWireRecorder(), worker: newWireRecorder(), lt: newLayerTimes(), expo: expo{}}
	}
	same("trace", b.layerMetrics(pass(), pass()), spec.PerLayer)
}
