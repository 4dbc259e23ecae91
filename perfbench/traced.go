package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"branchconf/internal/analysis"
	"branchconf/internal/apps"
	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/exp"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/serve"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// The traced run measures layers, not the end-to-end experience: it runs
// the workload's program passes with the program's own counters and CPU
// profile switched on, then calls each layer's public functions from this
// process inside spans. End-to-end metrics never come from a traced run.

// layerBudget is the per-benchmark budget of the in-process layer probes:
// the paper's 1M-branch traces.
const layerBudget = workload.DefaultBranches

// expBudget is the budget of the in-process experiment pass, the serve-mix
// request budget, so the resident pass reads against serve-mix latency.
const expBudget = serveBudget

// tierNames are the cache tiers tier.<tier>.* reports, in the order the
// program's stats encoding lists them (remote-artifact is unused here).
var tierNames = []string{
	"session-pass", "trace-memo", "annotated-stream", "bucket-stream",
	"model-stats", "curve", "artifact-disk", "stream-segment",
}

// heapStages are the engine stages the program samples peak heap at.
var heapStages = []string{
	"annotate", "tally", "replay",
	"stream-materialize", "stream-annotate", "stream-tally", "stream-replay",
}

// span is one traced interval. Times are nanoseconds from the start of the
// traced run; Self is the span's duration minus the time its child spans
// cover. Counts holds the counters read at the span's boundaries: the
// in-process cache tiers' deltas and the work the span did.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a top-level span
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps the run's spans in memory until the run ends. The traced
// run is sequential, so one stack of open spans gives every span its
// parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs fn inside a span named name and returns the span's duration.
// fn may add its own counters to counts.
func (t *tracer) span(name string, fn func(counts map[string]float64) error) (time.Duration, error) {
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	before := tierSnapshot()
	counts := map[string]float64{}
	err := fn(counts)
	for k, v := range tierSnapshot() {
		if d := v - before[k]; d != 0 {
			counts[k] = d
		}
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if len(counts) > 0 {
		s.Counts = counts
	}
	if err != nil {
		return time.Duration(s.End - s.Start), fmt.Errorf("%s: %w", name, err)
	}
	return time.Duration(s.End - s.Start), nil
}

// finish computes every span's self time.
func (t *tracer) finish() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID])
	}
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// tierSnapshot reads this process's cache-tier counters.
func tierSnapshot() map[string]float64 {
	out := map[string]float64{}
	for _, t := range exp.CacheTiers() {
		out["tier."+t.Name+".hits"] = float64(t.Stats.Hits)
		out["tier."+t.Name+".misses"] = float64(t.Stats.Misses)
		out["tier."+t.Name+".evictions"] = float64(t.Stats.Evictions)
	}
	return out
}

// programStats is what the traced program passes report about themselves.
type programStats struct {
	tiers      map[string]float64 // tier.<tier>.<counter>, summed over passes
	heap       map[string]float64 // stage -> peak heap bytes, max over passes
	shares     map[string]float64 // cpu_share bucket -> share
	cpuUtil    float64
	tracedCold float64 // wall seconds of the traced cold pass
	store      string  // artifact store the cold pass wrote ("" = none)
	served     *daemon // serve-mix's daemon, still running
	rejected   float64
	queued     float64
}

func newProgramStats() *programStats {
	return &programStats{tiers: map[string]float64{}, heap: map[string]float64{}}
}

// addSnapshot folds one stats snapshot (a one-shot run's -cache-stats-json
// or a daemon's /v1/stats) into the totals.
func (p *programStats) addSnapshot(s serve.CacheStatsJSON) {
	for _, t := range append([]serve.TierStatsJSON{s.SessionPass}, s.Tiers...) {
		p.tiers["tier."+t.Name+".hits"] += float64(t.Hits)
		p.tiers["tier."+t.Name+".misses"] += float64(t.Misses)
		p.tiers["tier."+t.Name+".evictions"] += float64(t.Evictions)
	}
	for _, h := range s.HeapStages {
		p.heap[h.Stage] = max(p.heap[h.Stage], float64(h.PeakHeapBytes))
	}
}

// runTraced makes the traced run of the configured workload.
func runTraced(cfg *runConfig, res *result) error {
	tr := newTracer()
	ps := newProgramStats()
	var m layerMetrics
	_, err := tr.span("traced-run", func(map[string]float64) error {
		var err error
		switch res.Workload {
		case "report":
			err = tracedReport(cfg, res, tr, ps)
		case "long-stream":
			err = tracedLongStream(cfg, res, tr, ps)
		case "serve-mix":
			err = tracedServeMix(cfg, res, tr, ps)
		}
		if err != nil {
			return err
		}
		m, err = probeLayers(cfg, res, tr, ps)
		return err
	})
	if ps.served != nil {
		ps.served.kill()
	}
	if err != nil {
		return err
	}
	tr.finish()
	total := time.Duration(tr.spans[0].End - tr.spans[0].Start)

	for _, name := range sortedKeys(m) {
		x := m[name]
		res.add(name, x.Value, x.Unit, x.N, x.Note)
	}
	for _, t := range tierNames {
		for _, c := range []string{"hits", "misses", "evictions"} {
			k := "tier." + t + "." + c
			res.add(k, ps.tiers[k], "count", 1, "")
		}
	}
	for _, st := range heapStages {
		res.add("heap."+st+".peak_bytes", ps.heap[st], "bytes", 1, "")
	}
	for _, p := range cpuPackages {
		res.add("cpu_share."+p, ps.shares[p], "ratio", 1, "charged to the innermost repository frame")
	}
	res.add("report.cpu_util", ps.cpuUtil, "ratio", 1, "cold pass CPU / (wall x nproc)")
	res.add("traced.cold_s", ps.tracedCold, "s", 1, "cold pass with stats and profiling on; compare with the untraced cold_s")
	res.add("serve.rejected", ps.rejected, "count", 1, "")
	res.add("serve.queued", ps.queued, "count", 1, "")
	res.extra("traced.wall_s", total.Seconds(), "s", 1, "the whole traced run")
	for _, s := range tr.spans {
		if s.Parent <= 0 && s.End > s.Start {
			res.extra("self_s."+s.Name, float64(s.Self)/1e9, "s", 1, fmt.Sprintf("span %.3fs minus its child spans", float64(s.End-s.Start)/1e9))
		}
	}
	res.Caveats = append(res.Caveats,
		"tier.annotated-stream.hits counts waits on an in-flight annotate build as hits on multi-core hosts; treat it as supporting evidence only, not comparable across core counts")
	return writeSpans(cfg, res, tr)
}

func writeSpans(cfg *runConfig, res *result, tr *tracer) error {
	dir := filepath.Join(filepath.Dir(cfg.work), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("spans-%s-seed%d-%d.json", res.Workload, res.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tracedPass runs one traced program pass inside a span, checks its bytes,
// and folds its -cache-stats-json snapshot into ps.
func tracedPass(cfg *runConfig, res *result, tr *tracer, ps *programStats, name, want string, args ...string) (procRun, error) {
	var r procRun
	_, err := tr.span("program."+name, func(counts map[string]float64) error {
		var err error
		r, err = runProgram(cfg.bin, append(args, "-cache-stats-json")...)
		res.Attempted++
		if err != nil {
			res.fail("traced %s pass: %v", name, err)
			return nil
		}
		if got := sha256Hex(r.stdout); got != want {
			res.mismatch("traced "+name+" pass", got, want)
		}
		var snap serve.CacheStatsJSON
		if err := json.Unmarshal(r.stderr, &snap); err != nil {
			return fmt.Errorf("decoding the pass's cache stats: %w", err)
		}
		ps.addSnapshot(snap)
		counts["cpu_s"] = r.cpu.Seconds()
		counts["max_rss_mb"] = r.maxRSSMB
		return nil
	})
	return r, err
}

// profileShares reads a CPU profile file into ps.shares.
func profileShares(ps *programStats, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ps.shares, err = cpuShares(b)
	return err
}

func tracedReport(cfg *runConfig, res *result, tr *tracer, ps *programStats) error {
	store := filepath.Join(cfg.work, "traced-store")
	if err := os.Mkdir(store, 0o755); err != nil {
		return err
	}
	prof := filepath.Join(cfg.work, "cold.pprof")
	cold, err := tracedPass(cfg, res, tr, ps, "cold", cfg.digests.Report, "-no-timings", "-artifact-dir", store, "-cpuprofile", prof)
	if err != nil {
		return err
	}
	if _, err := tracedPass(cfg, res, tr, ps, "warm", cfg.digests.Report, "-no-timings", "-artifact-dir", store); err != nil {
		return err
	}
	ps.tracedCold = cold.wall.Seconds()
	ps.cpuUtil = cold.cpu.Seconds() / (cold.wall.Seconds() * float64(runtime.NumCPU()))
	ps.store = store
	return profileShares(ps, prof)
}

func tracedLongStream(cfg *runConfig, res *result, tr *tracer, ps *programStats) error {
	prof := filepath.Join(cfg.work, "run.pprof")
	run, err := tracedPass(cfg, res, tr, ps, "cold", cfg.digests.LongStream,
		"-no-timings", "-only", "longhorizon", "-branches", fmt.Sprint(longStreamBudget), "-cpuprofile", prof)
	if err != nil {
		return err
	}
	ps.tracedCold = run.wall.Seconds()
	ps.cpuUtil = run.cpu.Seconds() / (run.wall.Seconds() * float64(runtime.NumCPU()))
	return profileShares(ps, prof)
}

func tracedServeMix(cfg *runConfig, res *result, tr *tracer, ps *programStats) error {
	clients := runtime.NumCPU()
	var d *daemon
	_, err := tr.span("program.boot", func(map[string]float64) error {
		var err error
		d, _, err = startDaemon(cfg.bin, clients, "-cache-stats")
		return err
	})
	if err != nil {
		return err
	}
	ps.served = d
	var cpu0, cpu1 time.Duration
	warmup, err := tr.span("program.cold", func(counts map[string]float64) error {
		var err error
		if cpu0, err = procCPU(d.pid()); err != nil {
			return err
		}
		prewarm(d, res, cfg.digests)
		cpu1, err = procCPU(d.pid())
		counts["cpu_s"] = (cpu1 - cpu0).Seconds()
		return err
	})
	if err != nil {
		return err
	}
	ps.tracedCold = warmup.Seconds()
	ps.cpuUtil = (cpu1 - cpu0).Seconds() / (warmup.Seconds() * float64(clients))
	_, err = tr.span("program.load", func(counts map[string]float64) error {
		// The daemon profiles itself for the load phase while a sampler
		// polls its admission gauges.
		prof := make(chan []byte, 1)
		profErr := make(chan error, 1)
		go func() {
			b, err := httpGet(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.base, cfg.seconds))
			prof <- b
			profErr <- err
		}()
		stop := make(chan struct{})
		queued := make(chan float64, 1)
		go func() {
			var peak float64
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					queued <- peak
					return
				case <-tick.C:
					if s, err := daemonStats(d); err == nil && s.Server != nil {
						peak = max(peak, float64(s.Server.Queued))
					}
				}
			}
		}()
		lr := loadPhase(d, res, cfg.digests, cfg.seed, clients, time.Duration(cfg.seconds)*time.Second)
		close(stop)
		ps.queued = <-queued
		b, err := <-prof, <-profErr
		if err != nil {
			return fmt.Errorf("fetching the daemon's CPU profile: %w", err)
		}
		counts["requests"] = float64(lr.completed)
		ps.shares, err = cpuShares(b)
		return err
	})
	if err != nil {
		return err
	}
	s, err := daemonStats(d)
	if err != nil {
		return err
	}
	ps.addSnapshot(s)
	if s.Server != nil {
		ps.rejected = float64(s.Server.RejectedFull + s.Server.RejectedTimeout + s.Server.RejectedDraining)
	}
	return nil
}

func daemonStats(d *daemon) (serve.CacheStatsJSON, error) {
	var s serve.CacheStatsJSON
	b, err := httpGet(d.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// layerMetrics collects the in-process probes' per-layer metrics by name.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string, n int, note string) {
	m[name] = metric{Name: name, Value: v, Unit: unit, N: n, Note: note}
}

// perBranch records d spread over branches, in nanoseconds per branch.
func (m layerMetrics) perBranch(name string, d time.Duration, branches float64, note string) {
	m.set(name, float64(d.Nanoseconds())/branches, "ns", 1, note)
}

// probeLayers calls each layer's public functions from this process inside
// spans and returns the per-layer metrics they give. It leaves any daemon
// the workload started running for the serve probe, then stops it.
func probeLayers(cfg *runConfig, res *result, tr *tracer, ps *programStats) (layerMetrics, error) {
	m := layerMetrics{}
	suite := workload.Suite()
	gcc, err := workload.ByName("real_gcc")
	if err != nil {
		return nil, err
	}
	bufs := make([]*trace.ReplayBuffer, len(suite))
	var gccBuf *trace.ReplayBuffer
	suiteBranches := float64(len(suite)) * float64(layerBudget)

	steps := []struct {
		name string
		fn   func(counts map[string]float64) error
		done func(d time.Duration)
	}{
		{"workload.materialize", func(c map[string]float64) error {
			for i, spec := range suite {
				b, err := workload.Materialize(spec, layerBudget)
				if err != nil {
					return err
				}
				bufs[i] = b
				if spec.Name == gcc.Name {
					gccBuf = b
				}
			}
			return nil
		}, func(d time.Duration) {
			m.perBranch("workload.materialize_ns_per_branch", d, suiteBranches, "suite at 1M branches each")
		}},
		{"workload.generate", func(c map[string]float64) error {
			src, err := gcc.FiniteSource(4 * layerBudget)
			if err != nil {
				return err
			}
			return drain(src)
		}, func(d time.Duration) {
			m.perBranch("workload.generate_ns_per_branch", d, 4*float64(layerBudget), "real_gcc FiniteSource drained")
		}},
		{"trace.flatten", func(c map[string]float64) error {
			for _, b := range bufs {
				if b.Flatten().Len() != b.Len() {
					return fmt.Errorf("flattened view lost records")
				}
			}
			return nil
		}, func(d time.Duration) { m.perBranch("trace.flatten_ns_per_branch", d, suiteBranches, "") }},
		{"trace.segment", func(c map[string]float64) error {
			srcs := make([]trace.Source, len(bufs))
			for i, b := range bufs {
				srcs[i] = b.Source()
			}
			seg := trace.NewSegmenter(trace.Concat(srcs...), serve.AutoSegmentBranches)
			for {
				if _, err := seg.Next(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				c["segments"]++
			}
		}, func(d time.Duration) {
			m.perBranch("trace.segment_ns_per_branch", d, suiteBranches, "suite replayed through auto-size segments")
		}},
	}
	for _, s := range steps {
		d, err := tr.span(s.name, s.fn)
		if err != nil {
			return nil, err
		}
		s.done(d)
	}

	if err := probeSim(tr, bufs, m); err != nil {
		return nil, err
	}
	if err := probeModels(tr, gccBuf, suite, bufs, m); err != nil {
		return nil, err
	}
	if err := probeExperiments(cfg, tr, ps, m); err != nil {
		return nil, err
	}
	if err := probeArtifact(cfg, tr, ps, m); err != nil {
		return nil, err
	}
	if err := probeServe(cfg, res, tr, ps, m); err != nil {
		return nil, err
	}
	return m, nil
}

func drain(src trace.Source) error {
	for {
		if _, err := src.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// fig5Mechanisms are fig5's one-level mechanisms, one per index scheme.
func fig5Mechanisms() []func() core.Mechanism {
	var out []func() core.Mechanism
	for _, scheme := range core.OneLevelSchemes() {
		out = append(out, func() core.Mechanism { return core.PaperOneLevel(scheme) })
	}
	return out
}

// probeSim times the predictor walk, the predictor-free mechanism replay,
// the whole annotated suite pass, and the curve build over its tallies.
func probeSim(tr *tracer, bufs []*trace.ReplayBuffer, m layerMetrics) error {
	suiteBranches := float64(len(bufs)) * float64(layerBudget)
	anns := make([]*sim.AnnotatedStream, len(bufs))
	d, err := tr.span("sim.annotate", func(map[string]float64) error {
		for i, b := range bufs {
			anns[i] = sim.AnnotateBuffer(b, predictor.Gshare64K())
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.perBranch("sim.annotate_ns_per_branch", d, suiteBranches, "gshare-64K walk over the suite")
	newMechs := fig5Mechanisms()
	var replay time.Duration
	_, err = tr.span("sim.replay", func(map[string]float64) error {
		for i, b := range bufs {
			flat := b.Flatten() // outside the timed replay: trace.flatten measures it
			mechs := make([]core.Mechanism, len(newMechs))
			for j, nm := range newMechs {
				mechs[j] = nm()
			}
			start := time.Now()
			if _, err := sim.ReplayAnnotated(flat, anns[i], mechs); err != nil {
				return err
			}
			replay += time.Since(start)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.perBranch("sim.replay_ns_per_branch_mech", replay, suiteBranches*float64(len(newMechs)), "fig5 one-level mechanisms, per branch per mechanism")
	var results []sim.SuiteResult
	d, err = tr.span("sim.suite_pass", func(map[string]float64) error {
		var err error
		results, err = sim.RunSuiteAnnotated(sim.SuiteConfig{Branches: layerBudget}, "perfbench|gshare64k",
			func() predictor.Predictor { return predictor.Gshare64K() }, newMechs)
		return err
	})
	if err != nil {
		return err
	}
	m.set("sim.suite_pass_s", d.Seconds(), "s", 1, "RunSuiteAnnotated, fig5 mechanisms, suite at 1M")
	d, err = tr.span("analysis.curve_build", func(map[string]float64) error {
		for _, r := range results {
			if len(analysis.BuildCurve(analysis.CompositePooled(r.Stats()))) == 0 {
				return fmt.Errorf("empty curve")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("analysis.curve_build_ms", float64(d.Microseconds())/1e3, "ms", len(results), "pooled composite + curve for each fig5 mechanism")
	return nil
}

// probeModels times the cycle-level and application models on real_gcc
// (SMT on its four-thread mix; hybrid and reverser as the report runs
// them).
func probeModels(tr *tracer, gccBuf *trace.ReplayBuffer, suite []workload.Spec, bufs []*trace.ReplayBuffer, m layerMetrics) error {
	n := float64(gccBuf.Len())
	byName := map[string]*trace.ReplayBuffer{}
	for i, s := range suite {
		byName[s.Name] = bufs[i]
	}
	var smtSlots float64
	models := []struct {
		name, metric string
		branches     *float64
		note         string
		run          func() error
	}{
		{"pipeline.run", "pipeline.run_ns_per_branch", &n, "Default96, gate 2, paper estimator 4", func() error {
			m := pipeline.Default96()
			m.GateThreshold = 2
			_, err := pipeline.Run(gccBuf.Source(), predictor.Gshare4K(), core.PaperEstimator(4), m)
			return err
		}},
		{"pipeline.dualpath", "pipeline.dualpath_ns_per_branch", &n, "", func() error {
			_, err := pipeline.RunDualPath(gccBuf.Source(), predictor.Gshare4K(), core.PaperEstimator(16),
				pipeline.DualPathConfig{FetchWidth: 4, Depth: 12, ForkWidth: 1})
			return err
		}},
		{"apps.dualpath", "apps.dualpath_ns_per_branch", &n, "", func() error {
			_, err := apps.RunDualPath(gccBuf.Source(), predictor.Gshare64K(), core.PaperEstimator(16), apps.DefaultDualPath())
			return err
		}},
		{"apps.gating", "apps.gating_ns_per_branch", &n, "", func() error {
			_, err := apps.RunGating(gccBuf.Source(), predictor.Gshare4K(), core.PaperEstimator(8), apps.GateConfig{ResolveDistance: 4, Threshold: 2})
			return err
		}},
		{"apps.smt", "apps.smt_ns_per_branch", &smtSlots, "per fetch slot of the four-thread mix", func() error {
			var threads []*apps.SMTThread
			for _, name := range []string{"groff", "real_gcc", "jpeg_play", "sdet"} {
				threads = append(threads, &apps.SMTThread{Name: name, Src: byName[name].Source(), Pred: predictor.Gshare4K(), Est: core.PaperEstimator(16)})
			}
			r, err := apps.RunSMT(threads, apps.SMTConfig{ResolveSlots: 6, Gated: true}, 4*uint64(layerBudget))
			smtSlots = float64(r.Slots)
			return err
		}},
		{"apps.hybrid", "apps.hybrid_ns_per_branch", &n, "", func() error {
			_, err := apps.CompareHybrids(gccBuf.Source(),
				func() predictor.Predictor { return predictor.NewBimodal(12) },
				func() predictor.Predictor { return predictor.NewGshare(12, 12) }, 12)
			return err
		}},
		{"apps.reverser", "apps.reverser_ns_per_branch", &n, "profile and evaluation pass each count", func() error {
			_, _, err := apps.ReverserStudy(gccBuf.Source(), gccBuf.Source(),
				func() predictor.Predictor { return predictor.Gshare4K() },
				func() core.Mechanism { return core.SmallResetting(12) }, 0.55)
			return err
		}},
	}
	for _, x := range models {
		d, err := tr.span(x.name, func(map[string]float64) error { return x.run() })
		if err != nil {
			return err
		}
		branches := *x.branches
		if x.name == "apps.reverser" {
			branches *= 2
		}
		m.perBranch(x.metric, d, branches, x.note)
	}
	return nil
}

// probeExperiments runs every default experiment, one at a time, on one
// session at the serve-mix budget: first cold, writing an artifact store,
// then again on the now-resident session.
func probeExperiments(cfg *runConfig, tr *tracer, ps *programStats, m layerMetrics) error {
	selected, err := serve.SelectExperiments(nil, false)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.work, "exp-store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	store, err := artifact.OpenStore(dir, artifact.Options{})
	if err != nil {
		return err
	}
	artifact.SetDefault(store)
	defer artifact.SetDefault(nil)
	if ps.store == "" {
		ps.store = dir
	}
	session := exp.NewSession(exp.Config{Branches: expBudget})
	for _, pass := range []string{"cold", "resident"} {
		prefix := "exp.span_s."
		if pass == "resident" {
			prefix = "exp.resident_s."
		}
		_, err := tr.span("exp."+pass, func(map[string]float64) error {
			for _, e := range selected {
				d, err := tr.span("exp."+pass+"."+e.ID, func(map[string]float64) error {
					_, err := e.Run(session)
					return err
				})
				if err != nil {
					return err
				}
				m.set(prefix+e.ID, d.Seconds(), "s", 1, "")
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeArtifact reads every record of the store the cold pass wrote
// through a fresh Store (decode and CRC-64 verify, as a warm start's first
// read does), and writes each payload into an empty store.
func probeArtifact(cfg *runConfig, tr *tracer, ps *programStats, m layerMetrics) error {
	paths, err := filepath.Glob(filepath.Join(ps.store, "*.art"))
	if err != nil {
		return err
	}
	src, err := artifact.OpenStore(ps.store, artifact.Options{})
	if err != nil {
		return err
	}
	dstDir := filepath.Join(cfg.work, "put-store")
	if err := os.Mkdir(dstDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dstDir)
	dst, err := artifact.OpenStore(dstDir, artifact.Options{})
	if err != nil {
		return err
	}
	var getT, putT time.Duration
	var payloadBytes, storeBytes float64
	_, err = tr.span("artifact.get_put", func(c map[string]float64) error {
		for _, p := range paths {
			rec, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			storeBytes += float64(len(rec))
			kind, key, err := artifact.RecordInfo(rec)
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			start := time.Now()
			payload, ok := src.Get(kind, key)
			getT += time.Since(start)
			if !ok {
				return fmt.Errorf("store record %s did not verify", filepath.Base(p))
			}
			start = time.Now()
			if err := dst.Put(kind, key, payload); err != nil {
				return err
			}
			putT += time.Since(start)
			payloadBytes += float64(len(payload))
			os.Remove(filepath.Join(dstDir, filepath.Base(p))) // keep the copy's disk footprint to one record
			c["records"]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("artifact store %s holds no records", ps.store)
	}
	const mb = 1 << 20
	m.set("artifact.get_mb_per_s", payloadBytes/mb/getT.Seconds(), "MB/s", len(paths), "Store.Get, first read per process: decode + CRC-64 verify")
	m.set("artifact.put_mb_per_s", payloadBytes/mb/putT.Seconds(), "MB/s", len(paths), "Store.Put: encode, temp file, rename")
	m.set("artifact.store_mb", storeBytes/mb, "MB", len(paths), "record bytes on disk")
	return nil
}

// serveProbeRepeats is how many warm requests each side of the serve probe
// times; the medians are compared.
const serveProbeRepeats = 11

// probeServe compares an in-process serve.BuildReport on a resident session
// with serve.Client.Report for the same shape against a daemon; the
// difference is the wire: HTTP, JSON and the daemon's admission.
func probeServe(cfg *runConfig, res *result, tr *tracer, ps *programStats, m layerMetrics) error {
	d := ps.served
	if d == nil {
		var err error
		_, err = tr.span("program.boot", func(map[string]float64) error {
			d, _, err = startDaemon(cfg.bin, 1)
			return err
		})
		if err != nil {
			return err
		}
		ps.served = d
		if s, err := daemonStats(d); err == nil && s.Server != nil {
			ps.rejected = float64(s.Server.RejectedFull + s.Server.RejectedTimeout + s.Server.RejectedDraining)
		}
	}
	sh := shapePool[0]
	session := exp.NewSession(exp.Config{Branches: serveBudget})
	build := func() error {
		b, err := serve.BuildReport(session, sh.request(), serve.BuildOptions{Parallel: runtime.NumCPU()})
		if err == nil && sha256Hex(stripTimings(b)) != cfg.digests.Shapes[sh.key()] {
			err = fmt.Errorf("in-process report for %s does not match its reference", sh.key())
		}
		return err
	}
	var inproc, wire []float64
	_, err := tr.span("serve.probe", func(map[string]float64) error {
		if err := build(); err != nil { // make the session resident
			return err
		}
		record(res, send(d, sh, cfg.digests), "serve probe warm-up")
		for i := 0; i < serveProbeRepeats; i++ {
			start := time.Now()
			if err := build(); err != nil {
				return err
			}
			inproc = append(inproc, float64(time.Since(start).Microseconds())/1e3)
			o := send(d, sh, cfg.digests)
			record(res, o, "serve probe")
			wire = append(wire, float64(o.latency.Microseconds())/1e3)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b, c := median(inproc), median(wire)
	m.set("serve.build_report_ms", b, "ms", len(inproc), "in-process BuildReport, resident session, shape "+sh.key())
	m.set("serve.client_report_ms", c, "ms", len(wire), "Client.Report against the daemon, same shape")
	m.set("serve.wire_ms", c-b, "ms", len(wire), "client minus in-process")
	_, _, err = d.stop()
	return err
}
