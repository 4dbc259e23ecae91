package main

import (
	"regexp"
	"strings"
	"testing"
	"time"
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

	// The annotated two-stage engine and the interleaved engine must also
	// agree byte for byte, at any worker count.
	renderNoAnnotate := func(parallel int) string {
		var out, errW strings.Builder
		c := cfg
		c.parallel = parallel
		c.noAnnotate = true
		if err := writeReport(&out, &errW, c); err != nil {
			t.Fatalf("no-annotate parallel=%d: %v", parallel, err)
		}
		return out.String()
	}
	for _, parallel := range []int{1, 2, 8} {
		if got := renderNoAnnotate(parallel); got != serial {
			t.Errorf("interleaved-engine report at -parallel=%d differs from annotated serial output", parallel)
		}
	}

	// And the stage-3 tally engine must change nothing: a -no-tally report
	// is byte-identical to the default (tally-enabled) report at any worker
	// count.
	renderNoTally := func(parallel int) string {
		var out, errW strings.Builder
		c := cfg
		c.parallel = parallel
		c.noTally = true
		if err := writeReport(&out, &errW, c); err != nil {
			t.Fatalf("no-tally parallel=%d: %v", parallel, err)
		}
		return out.String()
	}
	for _, parallel := range []int{1, 2, 8} {
		if got := renderNoTally(parallel); got != serial {
			t.Errorf("replay-path report at -parallel=%d differs from tally-path serial output", parallel)
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
		line := regexp.MustCompile(label + `: (\d+) hits, (\d+) misses`).FindStringSubmatch(progress)
		row := regexp.MustCompile(`cache-stats ` + tier + ` +hits=(\d+) misses=(\d+) `).FindStringSubmatch(progress)
		if line == nil || row == nil || line[1] != row[1] || line[2] != row[2] {
			t.Errorf("progress %q reads %v, -cache-stats row %q reads %v", label, line, tier, row)
		}
	}
}
