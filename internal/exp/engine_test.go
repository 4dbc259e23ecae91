package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// referenceEngine is the interleaved predictor-in-the-loop walk
// (sim.RunSuiteBatch): every branch steps the predictor and every
// mechanism in turn, with no annotation, tally or streaming stage between
// them. It is the oracle the production engine is held to.
func referenceEngine(cfg sim.SuiteConfig, pred PredSpec, newMechs []func() core.Mechanism) ([]sim.SuiteResult, error) {
	return sim.RunSuiteBatch(cfg, pred.New, newMechs)
}

// referenceHorizons is the long-horizon sweep's oracle: one independent
// interleaved pass per horizon, where production reads the shorter
// horizons as prefix cuts of one streaming walk.
func referenceHorizons(cfg sim.SuiteConfig, horizons []uint64, newMechs []func() core.Mechanism) ([][]sim.SuiteResult, error) {
	out := make([][]sim.SuiteResult, len(horizons))
	for i, h := range horizons {
		cfg.Branches = h
		rs, err := referenceEngine(cfg, predGshare64K, newMechs)
		if err != nil {
			return nil, err
		}
		out[i] = rs
	}
	return out, nil
}

// resetEngineTiers empties every process-wide tier a suite pass or a curve
// can be served from, so the next render computes everything afresh.
func resetEngineTiers() {
	workload.TraceTier.Reset()
	sim.AnnotatedTier.Reset()
	sim.BucketTier.Reset()
	CurveTier.Reset()
	ModelTier.Reset()
}

// TestAnnotatedMatchesInterleavedArtefacts is the engine's differential
// test: a registry slice rendered through the production Session (the
// annotated replay, the stage-3 tally, segmented streaming and the
// long-horizon prefix cuts) must be byte-identical to the same slice
// rendered through a Session whose engine is the interleaved reference,
// at one worker and at every CPU, monolithic and at segment sizes of one
// branch, a prime, and the whole budget. The slice covers the
// tally-factored figures (fig5-fig8, fig11), the state-coupled strength
// mechanism, every registered predictor (baseline, including the
// target-reading BTFN and agree predictors), the long-horizon sweep and a
// recorded ChampSim trace. The context-switch treatments (ctxswitch)
// render in legs of their own, at a budget that crosses their switches.
func TestAnnotatedMatchesInterleavedArtefacts(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a registry slice through eight engine configurations and ctxswitch through four")
	}
	const budget = 128
	t.Cleanup(func() {
		sim.SetParallelism(0)
		resetEngineTiers()
	})
	ids := []string{"fig2", "fig5", "fig6", "fig7", "fig8", "fig11", "table1", "strength", "thresholds", "baseline", "longhorizon", "realtrace"}
	traceFile := writeRealTrace(t, budget)

	render := func(s *Session, reference bool, ids ...string) map[string][]byte {
		t.Helper()
		out := make(map[string][]byte, len(ids))
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			run := e.Run
			if reference && id == "longhorizon" {
				run = func(s *Session) (*Output, error) { return longHorizon(s, referenceHorizons) }
			}
			o, err := run(s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = artefactBytes(t, o)
		}
		return out
	}

	sim.SetParallelism(1)
	resetEngineTiers()
	ref := NewSession(Config{Branches: budget, TraceFile: traceFile})
	ref.engine = referenceEngine
	want := render(ref, true, ids...)

	for _, workers := range []int{1, runtime.NumCPU()} {
		for _, segment := range []uint64{0, 1, 61, budget} {
			t.Run(fmt.Sprintf("workers=%d/segment=%d", workers, segment), func(t *testing.T) {
				sim.SetParallelism(workers)
				resetEngineTiers()
				got := render(NewSession(Config{Branches: budget, SegmentBranches: segment, TraceFile: traceFile}), false, ids...)
				for _, id := range ids {
					if !bytes.Equal(got[id], want[id]) {
						t.Errorf("%s: production artefact differs from the interleaved reference", id)
					}
				}
			})
		}
	}

	// The context-switch treatments act every switchInterval branches, so
	// ctxswitch renders at a budget past two switches. A segment size that
	// does not divide the interval lands switches mid-segment.
	const switchBudget = 2*switchInterval + 2_000
	sim.SetParallelism(1)
	resetEngineTiers()
	ref = NewSession(Config{Branches: switchBudget})
	ref.engine = referenceEngine
	wantSwitch := render(ref, true, "ctxswitch")["ctxswitch"]
	for _, workers := range []int{1, runtime.NumCPU()} {
		for _, segment := range []uint64{0, 9_973} {
			t.Run(fmt.Sprintf("ctxswitch/workers=%d/segment=%d", workers, segment), func(t *testing.T) {
				sim.SetParallelism(workers)
				resetEngineTiers()
				got := render(NewSession(Config{Branches: switchBudget, SegmentBranches: segment}), false, "ctxswitch")
				if !bytes.Equal(got["ctxswitch"], wantSwitch) {
					t.Error("ctxswitch: production artefact differs from the interleaved reference")
				}
			})
		}
	}
}
