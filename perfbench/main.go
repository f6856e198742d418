// Command perfbench is SnapTask's benchmark. It runs one workload (serve or
// campaign) against the real snaptask-server binary in its own
// process, drives it from this single generator process over at most nproc
// connections, checks every answer, and prints the end-to-end metrics. With
// -trace 1 it instead replays the same inputs in-process and prints the
// per-layer metrics. See README.md beside this file.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	perfbench -server-bin .bench_build/bin/snaptask-server -workload serve -seed 1 -seconds 16 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stealLimit is the share of CPU time (percent) the hypervisor may take
// during a run before the run is flagged invalid: beyond it the machine,
// not the code, sets the figures.
const stealLimit = 5.0

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one invocation's settings and shared state.
type bench struct {
	serverBin string
	procs     int // nproc: server GOMAXPROCS and the connection cap
	work      string
	serverLog string
	seed      int64
	seconds   time.Duration
	gauge     connGauge

	checkErrs []string // failed output checks
	invalid   []string // reasons the measurement is not trustworthy
}

func (b *bench) checkf(format string, args ...any) {
	b.checkErrs = append(b.checkErrs, fmt.Sprintf(format, args...))
}

func (b *bench) invalidf(format string, args ...any) {
	b.invalid = append(b.invalid, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: serve or campaign")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 16, "measurement budget of the run in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from an in-process replay")
	serverBin := fs.String("server-bin", "", "snaptask-server binary under test")
	workRoot := fs.String("work", ".bench_build/work", "scratch directory for journals, snapshots and logs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	workloads := map[string]func(*bench, context.Context) (map[string]metric, int, int, error){
		"serve": (*bench).serve, "campaign": (*bench).campaign,
	}
	runWL, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (serve, campaign)", *workload)
	}
	if *trace == 1 {
		runWL = func(b *bench, ctx context.Context) (map[string]metric, int, int, error) {
			return b.traced(ctx, *workload)
		}
	}
	if *trace == 0 {
		if _, err := os.Stat(*serverBin); err != nil {
			return fmt.Errorf("server binary: %w", err)
		}
	}
	work, err := workDir(*workRoot)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{
		serverBin: *serverBin,
		procs:     runtime.NumCPU(),
		work:      work,
		serverLog: filepath.Join(work, "server.log"),
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	total0, steal0 := cpuTimes()
	metrics, attempted, failedN, err := runWL(b, ctx)
	if err != nil {
		if log, rerr := os.ReadFile(b.serverLog); rerr == nil && len(log) > 0 {
			fmt.Fprintf(os.Stderr, "server log:\n%s\n", tailBytes(log, 4096))
		}
		return err
	}
	if peak := b.gauge.peak.Load(); peak > int64(b.procs) {
		b.checkf("generator opened %d connections at once, more than nproc=%d", peak, b.procs)
	}
	if err := checkMetricNames(metrics); err != nil {
		return err
	}
	if attempted < 1 {
		return errors.New("no operation attempted")
	}

	total1, steal1 := cpuTimes()
	steal := stealPct(total0, steal0, total1, steal1)
	if steal > stealLimit {
		b.invalidf("the hypervisor took %.1f%% of the CPU during the run (limit %v%%)", steal, stealLimit)
	}
	stamp := envStamp(b, *workload, *trace)
	stamp["steal_pct"] = steal
	stamp["valid"] = len(b.invalid) == 0
	if len(b.invalid) > 0 {
		stamp["invalid"] = b.invalid
	}
	if len(b.checkErrs) > 0 {
		stamp["checks_failed"] = b.checkErrs
	}
	printSummary(os.Stdout, metrics)
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", line)
	for _, r := range b.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", r)
	}
	for _, c := range b.checkErrs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.checkErrs) == 0,
		Attempted: attempted,
		Failed:    failedN,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printSummary(w *os.File, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func tailBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}
