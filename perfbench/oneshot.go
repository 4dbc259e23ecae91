package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not decide it.
const setupRepeats = 9

// longStreamBudget is long-stream's per-benchmark budget: far above the
// 8M-branch materialization ceiling, so the run streams in segments.
const longStreamBudget = 100_000_000

// longStreamBranches is the number of dynamic branches the long-horizon
// experiment simulates at longStreamBudget: real_gcc at 1/16, 1/4 and all
// of the budget.
const longStreamBranches = longStreamBudget/16 + longStreamBudget/4 + longStreamBudget

// timeSetup runs fn setupRepeats times and returns the median wall seconds.
func timeSetup(fn func(i int) error) (float64, error) {
	var xs []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// pass is one measured program run of a one-shot workload.
type pass struct {
	name string
	args []string
	want string // reference digest of the report on stdout
}

// runPasses runs each pass once, in order, counting every pass as one
// operation: a non-zero exit or a digest mismatch fails it.
func runPasses(cfg *runConfig, res *result, passes []pass) []procRun {
	runs := make([]procRun, len(passes))
	for i, p := range passes {
		fmt.Fprintf(cfg.progress, "perfbench: %s %s pass\n", res.Workload, p.name)
		r, err := runProgram(cfg.bin, p.args...)
		runs[i] = r
		res.Attempted++
		if err != nil {
			res.fail("%s pass: %v", p.name, err)
			continue
		}
		if got := sha256Hex(r.stdout); got != p.want {
			res.mismatch(p.name+" pass", got, p.want)
		}
	}
	return runs
}

// addPassMetrics reports the end-to-end metrics every one-shot workload
// shares from its cold and warm passes: the median wall time of each, the
// median CPU of a cold pass plus that of a warm pass, the larger of the
// two median peak RSS figures, and the failed share.
func addPassMetrics(res *result, setup float64, cold, warm []procRun) {
	stat := func(runs []procRun, f func(procRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	wall := func(r procRun) float64 { return r.wall.Seconds() }
	cpu := func(r procRun) float64 { return r.cpu.Seconds() }
	rss := func(r procRun) float64 { return r.maxRSSMB }
	res.add("setup_s", setup, "s", setupRepeats, "median of repeated set-ups")
	res.add("cold_s", stat(cold, wall), "s", len(cold), "median of the cold passes")
	res.add("warm_s", stat(warm, wall), "s", len(warm), "median of the warm passes")
	res.add("cpu_s", stat(cold, cpu)+stat(warm, cpu), "s", len(cold)+len(warm), "user+sys of the median cold pass plus the median warm pass")
	res.add("peak_rss_mb", max(stat(cold, rss), stat(warm, rss)), "MB", len(cold)+len(warm), "larger of the cold and warm medians")
	res.extra("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted, "")
}

// reportWarmPasses is how many warm passes report makes; warm_s is their
// median, which one slow pass does not decide.
const reportWarmPasses = 2

// runReport renders the full default report cold into an empty artifact
// store, then warm from the store the cold pass filled, reportWarmPasses
// times.
func runReport(cfg *runConfig, res *result) error {
	setup, err := timeSetup(func(i int) error {
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup-store-%d", i))
		defer os.RemoveAll(dir)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		_, err := runProgram(cfg.bin, "-no-timings", "-artifact-dir", dir, "-only", "fig2", "-branches", "1000")
		return err
	})
	if err != nil {
		return err
	}
	store := filepath.Join(cfg.work, "store")
	if err := os.Mkdir(store, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(store)
	args := []string{"-no-timings", "-artifact-dir", store}
	passes := []pass{{"cold", args, cfg.digests.Report}}
	for i := 0; i < reportWarmPasses; i++ {
		passes = append(passes, pass{"warm", args, cfg.digests.Report})
	}
	runs := runPasses(cfg, res, passes)
	addPassMetrics(res, setup, runs[:1], runs[1:])
	return nil
}

// runLongStream runs the 10^8-branch long-horizon sweep twice with no
// store. Nothing carries over between the passes, so the repeat pass is a
// control: it should read like the first.
func runLongStream(cfg *runConfig, res *result) error {
	setup, err := timeSetup(func(int) error {
		_, err := runProgram(cfg.bin, "-no-timings", "-only", "longhorizon", "-branches", "1000")
		return err
	})
	if err != nil {
		return err
	}
	args := []string{"-no-timings", "-only", "longhorizon", "-branches", fmt.Sprint(longStreamBudget)}
	runs := runPasses(cfg, res, []pass{
		{"cold", args, cfg.digests.LongStream},
		{"repeat", args, cfg.digests.LongStream},
	})
	addPassMetrics(res, setup, runs[:1], runs[1:])
	var rates []float64
	for _, r := range runs {
		rates = append(rates, longStreamBranches/r.wall.Seconds())
	}
	res.extra("branches_per_s", median(rates), "1/s", len(rates), "simulated branches per wall second, median of both passes")
	return nil
}
