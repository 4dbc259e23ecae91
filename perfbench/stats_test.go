package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same values.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		value   float64
		pct     float64
		support bool
	}{
		{2000, 1980, 99, true}, // p99 has 20 samples beyond it
		{1000, 990, 99, true},  // exactly ten beyond
		{500, 490, 98, true},   // p99 would leave 5: fall back to rank n-10
		{11, 1, 100.0 / 11, true},
		{10, 0, 0, false},
	} {
		v, pct, ok := tailPercentile(seq(c.n), 99)
		if ok != c.support {
			t.Errorf("n=%d: supported = %v, want %v", c.n, ok, c.support)
			continue
		}
		if !ok {
			continue
		}
		if v != c.value || !near(pct, c.pct) {
			t.Errorf("n=%d: got p%.2f = %v, want p%.2f = %v", c.n, pct, v, c.pct, c.value)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
}

func TestStripTimings(t *testing.T) {
	timed := "# Paper reproduction report\n\n## fig2 — x\n\n```\nrow\n```\n\n| metric | value |\n|---|---|\n| a | 1.000 |\n\n_(ran in 0.3s)_\n\n## fig5 — y\n\n```\nrow\n```\n\n_(ran in 12.0s)_\n\n"
	plain := "# Paper reproduction report\n\n## fig2 — x\n\n```\nrow\n```\n\n| metric | value |\n|---|---|\n| a | 1.000 |\n\n## fig5 — y\n\n```\nrow\n```\n\n"
	if got := string(stripTimings([]byte(timed))); got != plain {
		t.Errorf("stripTimings:\n%q\nwant\n%q", got, plain)
	}
	if got := string(stripTimings([]byte(plain))); got != plain {
		t.Error("stripTimings changed a report without timing lines")
	}
	// A line that only looks like a timing line inside a code block stays.
	odd := "```\n_(ran in fast)_\n```\n"
	if got := string(stripTimings([]byte(odd))); got != odd {
		t.Errorf("stripTimings removed a non-timing line: %q", got)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"cold_s", "tier.annotated-stream.hits", "exp.span_s.ablation-countermax", "9lives", "a"} {
		if err := validMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "ünï", "p99%", long} {
		if validMetricName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestCheckMetricsAgainstContract(t *testing.T) {
	want := []contractMetric{{"cold_s", "s"}, {"peak_rss_mb", "MB"}}
	good := []metric{{Name: "cold_s", Value: 1, Unit: "s"}, {Name: "peak_rss_mb", Value: 2, Unit: "MB"}}
	if err := checkMetrics(good, want); err != nil {
		t.Fatalf("valid metrics rejected: %v", err)
	}
	for name, got := range map[string][]metric{
		"missing":   good[:1],
		"unknown":   append(append([]metric(nil), good...), metric{Name: "rps", Value: 1, Unit: "1/s"}),
		"duplicate": append(append([]metric(nil), good...), good[0]),
		"unit":      {{Name: "cold_s", Value: 1, Unit: "ms"}, good[1]},
		"nan":       {{Name: "cold_s", Value: math.NaN(), Unit: "s"}, good[1]},
		"inf":       {{Name: "cold_s", Value: math.Inf(1), Unit: "s"}, good[1]},
	} {
		if checkMetrics(got, want) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.span("outer", func(map[string]float64) error {
		time.Sleep(5 * time.Millisecond)
		tr.span("inner", func(map[string]float64) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		})
		return nil
	})
	tr.finish()
	outer, inner := tr.spans[0], tr.spans[1]
	if inner.Parent != outer.ID || outer.Parent != -1 {
		t.Fatalf("parents: outer %d, inner %d", outer.Parent, inner.Parent)
	}
	if got, want := outer.Self, (outer.End-outer.Start)-(inner.End-inner.Start); got != want {
		t.Errorf("outer self %d, want duration minus child %d", got, want)
	}
	if inner.Self != inner.End-inner.Start {
		t.Errorf("leaf self %d differs from its duration %d", inner.Self, inner.End-inner.Start)
	}
	if got := covered([][2]int64{{5, 10}, {0, 3}, {8, 12}}); got != 10 {
		t.Errorf("covered = %d, want 10 (overlaps counted once)", got)
	}
}

func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	if x == 42 {
		t.Log(x) // keep the loop
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatalf("cpuShares: %v", err)
	}
	var sum float64
	for k, v := range shares {
		if !slices.Contains(cpuPackages, k) {
			t.Errorf("share for unlisted bucket %q", k)
		}
		sum += v
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["other"] == 0 {
		t.Errorf("the test's own loop was not attributed: %v", shares)
	}
	if _, err := cpuShares([]byte("not gzip")); err == nil {
		t.Error("a malformed profile decoded")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"branchconf/internal/core.(*OneLevel).Update":     "core",
		"branchconf/internal/xrand.(*RNG).Uint64":         "workload",
		"branchconf/internal/faultfs.Open":                "other",
		"runtime.mallocgc":                                "runtime",
		"crypto/sha256.block":                             "other",
		"branchconf/internal/sim.runSuiteStreaming.func1": "sim",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
