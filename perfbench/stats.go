package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// samples is a set of latency observations kept raw: a run holds at most a
// few tens of thousands, so exact order statistics cost nothing and need
// no bucket error bars.
type samples []time.Duration

// quantile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank rule:
// the ceil(q·n)-th smallest observation. Empty sets return 0.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sum returns the total of the observations.
func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// mean returns the arithmetic mean, 0 for an empty set.
func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailLadder is the set of percentiles a tail metric may report, lowest
// first.
var tailLadder = []float64{50, 60, 70, 75, 80, 85, 90, 95, 97.5, 99, 99.5, 99.9}

// tailSupported reports whether n samples support percentile p: at least
// ten observations must lie beyond it, so the tail is a measured value and
// not one or two outliers.
func tailSupported(p float64, n int) bool {
	beyond := float64(n) * (100 - p) / 100
	return beyond >= 10-1e-9
}

// highestTail returns the highest ladder percentile n samples support, or
// 0 when even the median has fewer than ten samples beyond it.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if tailSupported(p, n) {
			best = p
		}
	}
	return best
}

// chunkLen is the number of consecutive samples a tail at percentile p is
// taken over: the fewest that put ten samples beyond it.
func chunkLen(p float64) int { return int(math.Ceil(10/(1-p/100) - 1e-9)) }

// chunkTail is the tail the benchmark reports: the samples, in the order
// they were sent, are cut into consecutive chunks of chunkLen(p) (a short
// last chunk joins the one before it), each chunk's p-th percentile is
// taken, and the median of those is returned with the number of chunks. A
// single stall of the machine then moves one chunk, not the run's tail.
// With fewer samples than one chunk it returns the plain percentile and 0.
func chunkTail(s samples, p float64) (time.Duration, int) {
	n := chunkLen(p)
	if len(s) < n {
		return s.quantile(p / 100), 0
	}
	var tails []float64
	for i := 0; i+n <= len(s); i += n {
		end := i + n
		if len(s)-end < n {
			end = len(s)
		}
		tails = append(tails, float64(s[i:end].quantile(p/100)))
	}
	return time.Duration(median(tails)), len(tails)
}

// median returns the median of xs (the mean of the middle pair for even
// lengths); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nameRE is the metric and workload name grammar: a letter or digit, then
// up to 63 letters, digits, '_', '.' and '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit grammar.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func validName(s string) bool { return nameRE.MatchString(s) }

// checkMetricNames rejects a metric set with a malformed name or unit.
func checkMetricNames(ms map[string]metric) error {
	for name, m := range ms {
		if !validName(name) {
			return fmt.Errorf("metric name %q breaks the grammar", name)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: unit %q breaks the grammar", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %q: value %v is not a number", name, m.Value)
		}
	}
	return nil
}

// backlogGrew reports whether an open-loop rung ended with a growing
// queue. due and done are cumulative counts of requests due to be sent and
// requests completed, sampled at the middle and the end of the rung. The
// backlog (due minus done) may wobble by a few requests in flight; it
// grows when it rose by more than the larger of two requests and 5% of the
// second half's arrivals.
func backlogGrew(dueMid, doneMid, dueEnd, doneEnd int) bool {
	mid := dueMid - doneMid
	end := dueEnd - doneEnd
	slack := 0.05 * float64(dueEnd-dueMid)
	if slack < 2 {
		slack = 2
	}
	return float64(end-mid) > slack
}
