package sim

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Single-pass batched simulation. Confidence mechanisms are passive
// observers of the (PC, history, predicted, outcome) stream: they never
// influence the predictor or each other. RunBatch exploits that to walk one
// trace through one predictor instance while training any number of
// mechanisms, so N mechanism studies over the same predictor configuration
// cost one predictor simulation instead of N.

// RunBatch replays src through pred once, feeding every per-branch event to
// each mechanism under the paper's protocol: predict, read each
// mechanism's bucket, resolve, then train the predictor and every
// mechanism with the outcome. The returned results are index-aligned with
// mechs, and each is byte-identical to a RunBatch over that mechanism
// alone: mechanisms never see each other.
//
// It is the one predictor-in-the-loop walk: the reference the annotated
// and streaming engines are tested against, and the walk for one-off
// traces no engine tier would share.
func RunBatch(src trace.Source, pred predictor.Predictor, mechs []core.Mechanism) ([]Result, error) {
	results := make([]Result, len(mechs))
	accums := make([]*bucketAccum, len(mechs))
	for i := range accums {
		accums[i] = newBucketAccum()
	}
	// Predictor-coupled mechanisms (core.StateCoupled) are fed the captured
	// pre-update annotation state instead of reading the predictor live.
	// For a live-coupled mechanism the two are the same value by the
	// StateAnnotator contract; for an annotated mechanism with no predictor
	// reference this is the only way to answer.
	annPred, _ := pred.(predictor.StateAnnotator)
	coupled := make([]core.StateCoupled, len(mechs))
	anyCoupled := false
	if annPred != nil {
		for i, m := range mechs {
			if sc, ok := m.(core.StateCoupled); ok {
				coupled[i] = sc
				anyCoupled = true
			}
		}
	}
	finish := func() {
		for i := range results {
			results[i].Buckets = accums[i].stats()
		}
	}
	for {
		r, err := src.Next()
		if err == io.EOF {
			finish()
			return results, nil
		}
		if err != nil {
			finish()
			return results, fmt.Errorf("sim: reading trace: %w", err)
		}
		incorrect := pred.Predict(r) != r.Taken
		var st uint8
		if anyCoupled {
			st = annPred.AnnotationState(r)
		}
		// Buckets are read before the predictor trains, so
		// predictor-coupled mechanisms (e.g. counter strength) see the
		// pre-update state.
		for i, m := range mechs {
			if coupled[i] != nil {
				accums[i].add(coupled[i].BucketWithState(r, st), incorrect)
			} else {
				accums[i].add(m.Bucket(r), incorrect)
			}
		}
		pred.Update(r)
		for i, m := range mechs {
			m.Update(r, incorrect)
			results[i].Branches++
			if incorrect {
				results[i].Misses++
			}
		}
	}
}

// parallelism bounds concurrently running per-benchmark simulation units
// across all suite runs in the process (the scheduler's work unit is one
// benchmark × predictor-pass). The default tracks the machine.
var (
	parallelismMu sync.Mutex
	parallelism   = runtime.NumCPU()
	simSlots      chan struct{}
)

// SetParallelism bounds the number of benchmark-level simulation units
// running at once across every suite call. n < 1 resets to
// runtime.NumCPU(). Parallelism never affects results — each unit owns its
// source, predictor and mechanisms — only wall-clock time.
//
// Resizing is safe mid-suite: the channel is rebuilt eagerly under the lock,
// so units acquired before the resize release into the channel they drew
// from (each acquire closes over its channel) while new acquisitions see the
// new width immediately. Momentarily the two pools coexist, so in-flight
// work may briefly exceed the smaller of the two bounds — never the sum
// growing unboundedly — and the race detector sees only channel operations.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	parallelismMu.Lock()
	parallelism = n
	simSlots = make(chan struct{}, n)
	parallelismMu.Unlock()
}

// slotChan returns the current slot channel, building it on first use.
func slotChan() chan struct{} {
	parallelismMu.Lock()
	if simSlots == nil {
		simSlots = make(chan struct{}, parallelism)
	}
	slots := simSlots
	parallelismMu.Unlock()
	return slots
}

// currentParallelism reports the configured bound, for schedulers sizing
// their fan-out.
func currentParallelism() int {
	parallelismMu.Lock()
	defer parallelismMu.Unlock()
	return parallelism
}

// acquireSlot blocks until a simulation slot is free.
func acquireSlot() func() {
	slots := slotChan()
	slots <- struct{}{}
	return func() { <-slots }
}

// RunSuiteBatch replays every benchmark through a fresh predictor and a
// fresh instance of each mechanism constructor, in one predictor pass per
// benchmark. It returns one SuiteResult per mechanism constructor,
// index-aligned with newMechs, each holding per-benchmark runs in suite
// order — exactly what one call per mechanism would produce, for one
// predictor simulation per benchmark.
//
// Benchmarks run concurrently under the process-wide parallelism bound (see
// SetParallelism); determinism is unaffected. Per-benchmark failures are
// aggregated with errors.Join so a multi-benchmark failure reports every
// cause. newPred and newMechs are invoked from multiple goroutines and must
// be pure constructors.
func RunSuiteBatch(cfg SuiteConfig, newPred func() predictor.Predictor, newMechs []func() core.Mechanism) ([]SuiteResult, error) {
	specs := cfg.specs()
	perSpec := make([][]Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := acquireSlot()
			defer release()
			src, err := cfg.source(spec)
			if err != nil {
				errs[i] = fmt.Errorf("sim: building %s: %w", spec.Name, err)
				return
			}
			mechs := make([]core.Mechanism, len(newMechs))
			for j, nm := range newMechs {
				mechs[j] = nm()
			}
			rs, err := RunBatch(src, newPred(), mechs)
			if err != nil {
				errs[i] = fmt.Errorf("sim: running %s: %w", spec.Name, err)
				return
			}
			for j := range rs {
				rs[j].Benchmark = spec.Name
			}
			perSpec[i] = rs
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]SuiteResult, len(newMechs))
	for j := range newMechs {
		runs := make([]Result, len(specs))
		for i := range specs {
			runs[i] = perSpec[i][j]
		}
		out[j] = SuiteResult{Runs: runs}
	}
	return out, nil
}

// DeriveEstimator reconstructs the confusion summary an online estimator
// pass would have produced, from a mechanism run's per-bucket statistics.
// The equivalence is exact: an estimator's confidence signal is a pure
// function of the bucket read before update, which is precisely what the
// bucket statistics tally, so the low/high split is a partition of the
// bucket tallies.
func DeriveEstimator(res Result, reduce core.Reducer) EstimatorResult {
	out := EstimatorResult{
		Benchmark: res.Benchmark,
		Branches:  res.Branches,
		Misses:    res.Misses,
	}
	for b, t := range res.Buckets {
		if !reduce.Confident(b) {
			out.Low += t.Events
			out.LowMisses += t.Misses
		}
	}
	return out
}

// DeriveMulti reconstructs a multi-level estimator run from a
// counter-mechanism run, partitioning bucket tallies by the ascending
// threshold ladder exactly as core.MultiEstimator.Level does online.
func DeriveMulti(res Result, thresholds []uint64) MultiResult {
	out := MultiResult{Benchmark: res.Benchmark, Levels: make([]LevelTally, len(thresholds)+1)}
	for b, t := range res.Buckets {
		level := sort.Search(len(thresholds), func(i int) bool { return b < thresholds[i] })
		out.Levels[level].Branches += t.Events
		out.Levels[level].Misses += t.Misses
	}
	return out
}
