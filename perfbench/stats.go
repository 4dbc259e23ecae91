package main

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" rule Python's statistics.quantiles(xs, n=4) applies, so the
// spreads this benchmark reports are the ones its acceptance check
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// iqrShare is the distance between the quartiles of xs as a share of its
// median: the run-to-run spread a metric's bound is compared against.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentile returns the nearest-rank value at the highest percentile,
// up to want, that still leaves at least ten samples above its rank, and
// that percentile. A percentile with fewer than ten samples beyond it is
// decided by a handful of outliers; with ten or fewer samples no
// percentile qualifies and ok is false.
func tailPercentile(xs []float64, want float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return math.NaN(), 0, false
	}
	wantRank := int(math.Ceil(want * float64(n) / 100)) // 1-based nearest rank
	rank := max(1, min(wantRank, n-10))
	pct = want
	if rank < wantRank {
		pct = 100 * float64(rank) / float64(n)
	}
	return sortedCopy(xs)[rank-1], pct, true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timingLine matches the per-experiment wall-time line a report carries
// unless it was rendered with -no-timings.
var timingLine = regexp.MustCompile(`^_\(ran in [0-9]+(\.[0-9]+)?s\)_$`)

// stripTimings turns a report rendered with timings into the bytes the
// same report has under -no-timings: each "_(ran in Xs)_" line goes, with
// the blank line the renderer writes after it.
func stripTimings(report []byte) []byte {
	lines := bytes.SplitAfter(report, []byte("\n"))
	out := make([]byte, 0, len(report))
	for i := 0; i < len(lines); i++ {
		if timingLine.Match(bytes.TrimSuffix(lines[i], []byte("\n"))) {
			if i+1 < len(lines) && string(lines[i+1]) == "\n" {
				i++
			}
			continue
		}
		out = append(out, lines[i]...)
	}
	return out
}

// metricName is the form every reported metric name takes: a letter or a
// digit, then at most 63 letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name may label a metric.
func validMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
	}
	return nil
}
