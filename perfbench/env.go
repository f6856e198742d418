package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// envStamp records where and on what a run measured: the box, both
// processes' GOMAXPROCS, the toolchain, the code under test and the seed.
func envStamp(b *bench, workload string, trace int) map[string]any {
	return map[string]any{
		"workload":             workload,
		"seed":                 b.seed,
		"trace":                trace,
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_server":    b.procs,
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"max_open_conns":       b.gauge.peak.Load(),
		"cpu_model":            cpuModel(),
		"go_version":           runtime.Version(),
		"commit":               commit(),
	}
}

// cpuTimes returns the machine's total and stolen CPU time in clock ticks
// from /proc/stat; zeros when it cannot be read.
func cpuTimes() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealPct is the share of the machine's CPU time the hypervisor took
// between two cpuTimes readings, in percent.
func stealPct(total0, steal0, total1, steal1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test by a digest of its Go sources and
// go.mod: the benchmark runs in checkouts that need not be git
// repositories, and the same tree always gets the same stamp.
func commit() string {
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, "go.mod")
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
