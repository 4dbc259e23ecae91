package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"branchconf/internal/exp"
)

// stubClock freezes the report's timing lines so byte-comparison ignores
// wall-clock noise. now is a package variable read from worker goroutines,
// so the stub must be installed before writeReport starts and be
// race-free; a fixed instant is both.
func stubClock(t *testing.T) {
	t.Helper()
	saved := now
	epoch := time.Unix(1_000_000, 0)
	now = func() time.Time { return epoch }
	t.Cleanup(func() { now = saved })
}

// TestParallelReportMatchesSerial is the scheduler's determinism
// guarantee: the report produced by the bounded worker pool at any
// parallelism level is byte-identical to the serial run.
func TestParallelReportMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset at three parallelism levels")
	}
	stubClock(t)
	// A subset spanning batched figures, derived tables, and streaming
	// application models keeps the test quick while exercising the shared
	// session from many goroutines.
	cfg := reportConfig{
		branches: 30000,
		filter: map[string]bool{
			"fig2": true, "fig5": true, "fig8": true, "table1": true,
			"thresholds": true, "multilevel": true, "fig9": true,
		},
	}
	render := func(parallel int) string {
		var out, errW strings.Builder
		c := cfg
		c.parallel = parallel
		if err := writeReport(&out, &errW, c); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return out.String()
	}
	serial := render(1)
	for _, parallel := range []int{2, 8} {
		if got := render(parallel); got != serial {
			t.Errorf("report at -parallel=%d differs from serial output", parallel)
		}
	}
}

// TestParallelOneCacheStatsStable: -parallel bounds the engine's
// simulation units as well as the experiment pool, so at -parallel 1 every
// tier is claimed in one fixed order. Two runs of one report from reset
// tiers then print identical bucket-stream rows, evictions and resident
// bytes included (the tier bound is set low so that evictions happen).
func TestParallelOneCacheStatsStable(t *testing.T) {
	stubClock(t)
	t.Cleanup(func() {
		resetEngineCaches()
		exp.SetCacheBound(0)
	})
	args := []string{"-parallel", "1", "-cache-stats", "-annotate-cache-mb", "1",
		"-branches", "20000", "-only", "fig5,fig6,fig7,fig8,fig11"}
	row := regexp.MustCompile(`(?m)^cache-stats bucket-stream .*$`)
	run := func() string {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := appMain(args, &out, &errW); err != nil {
			t.Fatal(err)
		}
		r := row.FindString(errW.String())
		if r == "" {
			t.Fatalf("no bucket-stream row in:\n%s", errW.String())
		}
		return r
	}
	first := run()
	if !strings.Contains(first, "evictions=") || strings.Contains(first, "evictions=0 ") {
		t.Fatalf("the bound forced no evictions, so the row proves nothing: %s", first)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("-parallel 1 runs print different bucket-stream rows:\n%s\n%s", first, got)
		}
	}
}

// TestReportCacheStats checks the progress stream reports the session's
// cache behaviour when writing to a file (-o mode).
func TestReportCacheStats(t *testing.T) {
	stubClock(t)
	var out, errW strings.Builder
	err := writeReport(&out, &errW, reportConfig{
		branches:   20000,
		filter:     map[string]bool{"fig2": true, "fig5": true},
		progress:   true,
		parallel:   2,
		cacheStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	progress := errW.String()
	if !strings.Contains(progress, "pass cache:") || !strings.Contains(progress, "trace cache:") ||
		!strings.Contains(progress, "annotated cache:") {
		t.Fatalf("progress output missing cache stats:\n%s", progress)
	}
	// Each progress-line tier reads the same counts as its -cache-stats row.
	for label, tier := range map[string]string{
		"trace cache": "trace-memo", "annotated cache": "annotated-stream", "bucket cache": "bucket-stream",
		"model cache": "model-stats", "curve cache": "curve", "artifact disk": "artifact-disk",
	} {
		line := regexp.MustCompile(label + `: (\d+) hits, (\d+) coalesced, (\d+) misses`).FindStringSubmatch(progress)
		row := regexp.MustCompile(`cache-stats ` + tier + ` +hits=(\d+) misses=(\d+) .* coalesced=(\d+)\n`).FindStringSubmatch(progress)
		if line == nil || row == nil || line[1] != row[1] || line[2] != row[3] || line[3] != row[2] {
			t.Errorf("progress %q reads %v, -cache-stats row %q reads %v", label, line, tier, row)
		}
	}
}
