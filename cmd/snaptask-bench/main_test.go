package main

import (
	"strings"
	"testing"

	"snaptask/internal/experiments"
)

func TestSampleCurve(t *testing.T) {
	curve := []experiments.CurvePoint{
		{Photos: 100, CoveragePct: 10},
		{Photos: 300, CoveragePct: 30},
		{Photos: 700, CoveragePct: 70},
	}
	cov := func(p experiments.CurvePoint) float64 { return p.CoveragePct }
	tests := []struct {
		n    int
		want float64
	}{
		{50, -1},  // series not started
		{100, 10}, // exact hit
		{200, 10}, // last point at or below
		{500, 30},
		{900, 70},
	}
	for _, tt := range tests {
		if got := sampleCurve(curve, tt.n, cov); got != tt.want {
			t.Errorf("sampleCurve(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestFmtPct(t *testing.T) {
	if got := fmtPct(-1); got != "-" {
		t.Errorf("fmtPct(-1) = %q", got)
	}
	if got := fmtPct(63.672); got != "63.7%" {
		t.Errorf("fmtPct = %q", got)
	}
}

func TestShrink(t *testing.T) {
	in := "##..\n....\n__..\n....\n"
	out := shrink(in, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("rows = %d, want 2", len(lines))
	}
	// Block (0,0) contains '#' → '#'; block (1,0) contains '.' → '.'.
	if lines[0] != "#." {
		t.Errorf("row 0 = %q, want \"#.\"", lines[0])
	}
	// Block with '_' and '.' prefers '.'.
	if lines[1][0] != '.' {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Shrink factor 1 is identity.
	if got := shrink(in, 1); got != in {
		t.Errorf("shrink(1) changed the input:\n%q\n%q", in, got)
	}
}

func TestCheckIngestGateGrouped(t *testing.T) {
	report := func(grouped float64) *ingestReport {
		r := &ingestReport{Venue: "v", Sizes: []ingestRow{{Views: 1000, Speedup: 2, Identical: true}}}
		if grouped > 0 {
			r.Grouped = &groupedRow{Speedup: grouped}
		}
		return r
	}
	tests := []struct {
		name             string
		committed, fresh float64
		errSubstr        string
	}{
		{name: "holds", committed: 2.65, fresh: 2.0},
		{name: "floor is half the committed speedup", committed: 2.65, fresh: 1.3, errSubstr: "floor 1.32x"},
		{name: "floor never below 1.2x", committed: 1.5, fresh: 1.1, errSubstr: "floor 1.20x"},
		{name: "fresh run lost its grouped row", committed: 2.65, fresh: 0, errSubstr: "produced none"},
		{name: "no committed grouped row", committed: 0, fresh: 1.0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := checkIngestGate(report(tc.committed), report(tc.fresh))
			switch {
			case tc.errSubstr == "" && err != nil:
				t.Fatalf("unexpected gate failure: %v", err)
			case tc.errSubstr != "" && err == nil:
				t.Fatal("gate passed, want failure")
			case tc.errSubstr != "" && !strings.Contains(err.Error(), tc.errSubstr):
				t.Fatalf("gate error %q, want it to mention %q", err, tc.errSubstr)
			}
		})
	}
}
