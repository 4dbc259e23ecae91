package exp

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// modelCase pairs one lane-kernel model build, fed through the session's
// lane helpers exactly as the experiments feed it, with its source-driven
// reference walk.
type modelCase struct {
	name string
	lane func(s *Session, spec workload.Spec) (any, error)
	ref  func(src func() trace.Source) (any, error)
}

func modelCases() []modelCase {
	var cases []modelCase
	gates := []struct {
		label  string
		gate   int
		thr    uint64
		oracle bool
	}{
		{"ungated", 0, 0, false},
		{"est8-gate4", 4, 8, false},
		{"est2-gate1", 1, 2, false},
		{"oracle-gate1", 1, 0, true},
	}
	for _, g := range gates {
		cfg := pipeline.Default96()
		cfg.GateThreshold = g.gate
		cases = append(cases, modelCase{
			name: "pipeline/" + g.label,
			lane: func(s *Session, spec workload.Spec) (any, error) {
				l, err := s.policyLanes(context.Background(), spec, g.thr, g.oracle)
				if err != nil {
					return nil, err
				}
				return pipeline.RunLanes(l, cfg)
			},
			ref: func(src func() trace.Source) (any, error) {
				pred := predictor.Gshare4K()
				var est pipeline.ConfidenceSignal
				if g.oracle {
					est = refOracle{pred: pred}
				} else if g.thr > 0 {
					est = core.PaperEstimator(g.thr)
				}
				return refPipelineRun(src(), pred, est, cfg)
			},
		})
	}
	dual := pipeline.DualPathConfig{FetchWidth: 4, Depth: 12, ForkWidth: 1}
	for _, g := range gates[1:] {
		cases = append(cases, modelCase{
			name: "pipedual/" + g.label,
			lane: func(s *Session, spec workload.Spec) (any, error) {
				l, err := s.policyLanes(context.Background(), spec, g.thr, g.oracle)
				if err != nil {
					return nil, err
				}
				return pipeline.RunDualPathLanes(l, dual)
			},
			ref: func(src func() trace.Source) (any, error) {
				pred := predictor.Gshare4K()
				var est pipeline.ConfidenceSignal = core.PaperEstimator(g.thr)
				if g.oracle {
					est = refOracle{pred: pred}
				}
				return refPipelineDualPath(src(), pred, est, dual)
			},
		})
	}
	ctTable := func() *core.CounterTable {
		return core.NewCounterTable(core.CounterConfig{Kind: core.Resetting, Scheme: core.IndexPCxorBHR, TableBits: 13, HistoryBits: 15})
	}
	predSplit := Pred(func() predictor.Predictor { return predictor.NewGshare(15, 15) })
	gateCfgs := []apps.GateConfig{{ResolveDistance: 4}, {ResolveDistance: 4, Threshold: 4}, {ResolveDistance: 4, Threshold: 1}}
	cases = append(cases,
		modelCase{
			name: "appdual",
			lane: func(s *Session, spec workload.Spec) (any, error) {
				l, err := s.estLanes(context.Background(), spec, predGshare64K, core.PaperResetting(), 16)
				if err != nil {
					return nil, err
				}
				return apps.RunDualPathLanes(l, apps.DefaultDualPath())
			},
			ref: func(src func() trace.Source) (any, error) {
				return refAppDualPath(src(), predictor.Gshare64K(), core.PaperEstimator(16), apps.DefaultDualPath())
			},
		},
		modelCase{
			name: "costsplit-appdual",
			lane: func(s *Session, spec workload.Spec) (any, error) {
				l, err := s.estLanes(context.Background(), spec, predSplit, ctTable(), 16)
				if err != nil {
					return nil, err
				}
				return apps.RunDualPathLanes(l, apps.DefaultDualPath())
			},
			ref: func(src func() trace.Source) (any, error) {
				est := core.NewEstimator(ctTable(), core.CounterReducer{Threshold: 16})
				return refAppDualPath(src(), predSplit.New(), est, apps.DefaultDualPath())
			},
		},
		modelCase{
			name: "gating",
			lane: func(s *Session, spec workload.Spec) (any, error) {
				l, err := s.estLanes(context.Background(), spec, predGshare4K, core.PaperResetting(), 8)
				if err != nil {
					return nil, err
				}
				return apps.RunGatingLanes(l, gateCfgs)
			},
			ref: func(src func() trace.Source) (any, error) {
				out := make([]apps.GateResult, len(gateCfgs))
				for i, cfg := range gateCfgs {
					r, err := refGating(src(), predictor.Gshare4K(), core.PaperEstimator(8), cfg)
					if err != nil {
						return nil, err
					}
					out[i] = r
				}
				return out, nil
			},
		},
		modelCase{
			name: "hybrid",
			lane: func(s *Session, spec workload.Spec) (any, error) {
				recs, a, b, err := s.hybridLanes(context.Background(), spec)
				if err != nil {
					return nil, err
				}
				return apps.CompareHybridLanes(recs, a, b, 12), nil
			},
			ref: func(src func() trace.Source) (any, error) {
				return refCompareHybrids(src(), predBimodal12.New, predGshare12x12.New, 12)
			},
		},
		modelCase{
			name: "reverser",
			lane: func(s *Session, spec workload.Spec) (any, error) {
				pass, err := s.SuiteOne(predGshare4K, mechSmallReset12)
				if err != nil {
					return nil, err
				}
				run, err := pass.ByName(spec.Name)
				if err != nil {
					return nil, err
				}
				set := apps.ReverseSet(run.Buckets, 0.55)
				return [2]any{apps.Reverse(run.Buckets, set), len(set)}, nil
			},
			ref: func(src func() trace.Source) (any, error) {
				r, n, err := refReverserStudy(src(), src(), predGshare4K.New, mechSmallReset12.New, 0.55)
				return [2]any{r, n}, err
			},
		},
	)
	return cases
}

// TestModelLanesMatchReference is the differential test of the lane
// kernels: every model, fed the engine's lanes through the session helpers
// the experiments use, must reproduce its source-driven reference walk
// exactly — oracle and gated policies included, on every suite benchmark,
// at budgets of one branch, off a 64-branch word boundary, and on one, at
// one worker and at every CPU. Before the kernels run, the worker count
// drives a parallel suite pass that builds a share of the lanes the
// kernels then read, as fig10 does ahead of the models in a report.
func TestModelLanesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("walks every model over the suite at three budgets")
	}
	defer sim.SetParallelism(0)
	defer sim.AnnotatedTier.Reset()
	defer sim.BucketTier.Reset()
	defer workload.TraceTier.Reset()
	cases := modelCases()
	for _, budget := range []uint64{1, 100_003, 200_000} {
		ref := NewSession(Config{Branches: budget})
		want := map[string]any{}
		for _, spec := range workload.Suite() {
			src := func() trace.Source {
				s, err := ref.Source(spec)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			for _, c := range cases {
				v, err := c.ref(src)
				if err != nil {
					t.Fatalf("%s/%s reference: %v", spec.Name, c.name, err)
				}
				want[spec.Name+"/"+c.name] = v
			}
		}
		for _, gated := range []bool{false, true} {
			var threads []*refSMTThread
			for _, name := range smtMix {
				spec, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				src, err := ref.Source(spec)
				if err != nil {
					t.Fatal(err)
				}
				threads = append(threads, &refSMTThread{src: src, pred: predictor.Gshare4K(), est: core.PaperEstimator(16)})
			}
			r, err := refSMT(threads, apps.SMTConfig{ResolveSlots: 6, Gated: gated}, 4*budget)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("smt/gated=%t", gated)] = r
		}

		for _, workers := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", budget, workers), func(t *testing.T) {
				sim.SetParallelism(workers)
				sim.AnnotatedTier.Reset()
				sim.BucketTier.Reset()
				s := NewSession(Config{Branches: budget})
				if _, err := s.Suite(predGshare4K, mechResetting, mechSmallReset12); err != nil {
					t.Fatal(err)
				}
				for _, spec := range workload.Suite() {
					for _, c := range cases {
						got, err := c.lane(s, spec)
						if err != nil {
							t.Fatalf("%s/%s: %v", spec.Name, c.name, err)
						}
						if w := want[spec.Name+"/"+c.name]; !reflect.DeepEqual(got, w) {
							t.Errorf("%s/%s: lanes %+v, reference %+v", spec.Name, c.name, got, w)
						}
					}
				}
				for _, gated := range []bool{false, true} {
					lanes, err := s.smtLanes(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					got, err := apps.RunSMTLanes(lanes, apps.SMTConfig{ResolveSlots: 6, Gated: gated}, 4*budget)
					if err != nil {
						t.Fatal(err)
					}
					if w := want[fmt.Sprintf("smt/gated=%t", gated)]; !reflect.DeepEqual(got, w) {
						t.Errorf("smt gated=%t: lanes %+v, reference %+v", gated, got, w)
					}
				}
			})
		}
	}
}

// TestModelsReadFig10Lanes: once fig10 has run on a session, the pipeline,
// gating and apps studies annotate nothing new for gshare-4K — every
// gshare-4K lane they read is a hit in the annotated tier. The apps
// study's other predictors (gshare-64K for dual-path, the hybrid's two
// components) are annotated beforehand, so any new miss can only be a
// gshare-4K walk.
func TestModelsReadFig10Lanes(t *testing.T) {
	defer sim.AnnotatedTier.Reset()
	defer sim.BucketTier.Reset()
	defer workload.TraceTier.Reset()
	sim.AnnotatedTier.Reset()
	s := NewSession(Config{Branches: 20_000, NoModelArtifact: true})
	run := func(id string) {
		t.Helper()
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(s); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	run("fig10")
	for _, p := range []PredSpec{predGshare64K, predBimodal12, predGshare12x12} {
		if _, err := s.SuiteOne(p, mechStatic); err != nil {
			t.Fatal(err)
		}
	}
	before := sim.AnnotatedTier.Stats()
	for _, id := range []string{"pipeline", "gating", "apps"} {
		run(id)
	}
	after := sim.AnnotatedTier.Stats()
	if after.Misses != before.Misses {
		t.Errorf("pipeline, gating and apps annotated %d streams after fig10", after.Misses-before.Misses)
	}
	if after.Hits == before.Hits {
		t.Error("the models read no annotated lanes")
	}
}
