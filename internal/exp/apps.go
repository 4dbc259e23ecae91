package exp

import (
	"context"
	"fmt"
	"strings"

	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/lane"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// The hybrid study's component predictors and the reverser's pass
// mechanism (fig10's 4096-entry table).
var (
	predBimodal12    = Pred(func() predictor.Predictor { return predictor.NewBimodal(12) })
	predGshare12x12  = Pred(func() predictor.Predictor { return predictor.NewGshare(12, 12) })
	mechSmallReset12 = Mech(func() core.Mechanism { return core.SmallResetting(12) })
)

// smtMix is the SMT study's four-thread workload mix.
var smtMix = []string{"groff", "real_gcc", "jpeg_play", "sdet"}

// smtLanes returns each SMT thread's gshare-4K lanes, low confidence under
// the paper estimator at threshold 16.
func (s *Session) smtLanes(ctx context.Context) ([]lane.Lanes, error) {
	lanes := make([]lane.Lanes, len(smtMix))
	for i, name := range smtMix {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		if lanes[i], err = s.estLanes(ctx, spec, predGshare4K, core.PaperResetting(), 16); err != nil {
			return nil, err
		}
	}
	return lanes, nil
}

// hybridLanes returns spec's records and the hybrid study's two component
// inputs: each component's miss lane and its HybridTable bucket lane.
func (s *Session) hybridLanes(ctx context.Context, spec workload.Spec) ([]trace.Record, apps.HybridLane, apps.HybridLane, error) {
	la, confA, err := s.modelLanes(ctx, spec, predBimodal12, apps.HybridTable())
	if err != nil {
		return nil, apps.HybridLane{}, apps.HybridLane{}, err
	}
	lb, confB, err := s.modelLanes(ctx, spec, predGshare12x12, apps.HybridTable())
	if err != nil {
		return nil, apps.HybridLane{}, apps.HybridLane{}, err
	}
	return la.Recs, apps.HybridLane{Miss: la.Miss, Conf: confA}, apps.HybridLane{Miss: lb.Miss, Conf: confB}, nil
}

// packAppDual flattens an application-level dual-path run's counters for
// the model tier.
func packAppDual(r apps.DualPathResult) []uint64 {
	return []uint64{r.Branches, r.Misses, r.Forks, r.CoveredMiss, r.DeniedForks, r.BaseCycles, r.DualCycles}
}

const appDualLen = 7

func unpackAppDual(c []uint64) apps.DualPathResult {
	return apps.DualPathResult{Branches: c[0], Misses: c[1], Forks: c[2], CoveredMiss: c[3], DeniedForks: c[4], BaseCycles: c[5], DualCycles: c[6]}
}

// appDualParams canonicalises a dual-path study's machine shape for keys.
func appDualParams(pred, est string, cfg apps.DualPathConfig) string {
	return fmt.Sprintf("pred=%s|est=%s|pen=%d|forkpen=%d|threads=%d|resolve=%d",
		pred, est, cfg.MispredictPenalty, cfg.ForkPenalty, cfg.MaxThreads, cfg.ResolveDistance)
}

func init() {
	register(Experiment{
		ID:    "apps",
		Title: "The four §1 applications driven by the recommended estimator",
		Paper: "§6: forking after ~20% of predictions captures >80% of mispredictions; reverser contingent on >50% buckets",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "apps", Title: "applications", Scalars: map[string]float64{}}
			var b strings.Builder

			// 1) Selective dual-path execution, averaged over the suite.
			var forkRate, coverage, savings float64
			n := 0
			for _, spec := range workload.Suite() {
				params := appDualParams("gshare64k", "paper16", apps.DefaultDualPath())
				counts, err := s.modelCounts(o.ID, modelKey("appdual", spec.Name, s.Branches(), params), appDualLen, func(ctx context.Context) ([]uint64, error) {
					l, err := s.estLanes(ctx, spec, predGshare64K, core.PaperResetting(), 16)
					if err != nil {
						return nil, err
					}
					res, err := apps.RunDualPathLanes(l, apps.DefaultDualPath())
					if err != nil {
						return nil, err
					}
					return packAppDual(res), nil
				})
				if err != nil {
					return nil, err
				}
				res := unpackAppDual(counts)
				forkRate += res.ForkRate()
				coverage += res.Coverage()
				savings += res.PenaltySavings()
				n++
			}
			forkRate, coverage, savings = forkRate/float64(n), coverage/float64(n), savings/float64(n)
			fmt.Fprintf(&b, "dual-path:  fork on %.1f%% of branches -> cover %.1f%% of mispredictions, save %.1f%% of penalty cycles\n",
				100*forkRate, 100*coverage, 100*savings)
			o.Scalars["dualpath-forkRate%"] = 100 * forkRate
			o.Scalars["dualpath-coverage%"] = 100 * coverage
			o.Scalars["dualpath-savings%"] = 100 * savings

			// 2) SMT fetch gating: four mixed threads, gated vs round-robin,
			// each thread reading its benchmark's gshare-4K lanes. One SMT
			// model run per policy, served through the model tier. The
			// thread mix is part of the key; PerThreadUse rides behind the
			// four scalar counters in the packed vector.
			runSMT := func(gated bool) (apps.SMTResult, error) {
				smtCfg := apps.SMTConfig{ResolveSlots: 6, Gated: gated}
				params := fmt.Sprintf("mix=%s|pred=gshare4k|est=paper16|slots=%d|gated=%t", strings.Join(smtMix, "+"), smtCfg.ResolveSlots, gated)
				counts, err := s.modelCounts(o.ID, modelKey("smt", "mix4", 4*s.Branches(), params), 4+4, func(ctx context.Context) ([]uint64, error) {
					lanes, err := s.smtLanes(ctx)
					if err != nil {
						return nil, err
					}
					res, err := apps.RunSMTLanes(lanes, smtCfg, 4*s.Branches())
					if err != nil {
						return nil, err
					}
					return append([]uint64{res.Slots, res.Useful, res.Wasted, res.GatedSkips}, res.PerThreadUse...), nil
				})
				if err != nil {
					return apps.SMTResult{}, err
				}
				return apps.SMTResult{Slots: counts[0], Useful: counts[1], Wasted: counts[2], GatedSkips: counts[3], PerThreadUse: counts[4:]}, nil
			}
			base, err := runSMT(false)
			if err != nil {
				return nil, err
			}
			gated, err := runSMT(true)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, "smt-fetch:  efficiency %.2f%% round-robin -> %.2f%% confidence-gated\n",
				100*base.Efficiency(), 100*gated.Efficiency())
			o.Scalars["smt-base-eff%"] = 100 * base.Efficiency()
			o.Scalars["smt-gated-eff%"] = 100 * gated.Efficiency()

			// 3) Hybrid selector vs tournament, averaged over the suite.
			var confRate, tourRate, bimRate, gshRate float64
			for _, spec := range workload.Suite() {
				counts, err := s.modelCounts(o.ID, modelKey("hybrid", spec.Name, s.Branches(), "a=bimodal12|b=gshare12x12|chooser=12"), 5, func(ctx context.Context) ([]uint64, error) {
					recs, a, b, err := s.hybridLanes(ctx, spec)
					if err != nil {
						return nil, err
					}
					r := apps.CompareHybridLanes(recs, a, b, 12)
					return []uint64{r.Branches, r.ConfHybrid, r.Tournament, r.SoloA, r.SoloB}, nil
				})
				if err != nil {
					return nil, err
				}
				cmpRes := apps.HybridComparison{Branches: counts[0], ConfHybrid: counts[1], Tournament: counts[2], SoloA: counts[3], SoloB: counts[4]}
				confRate += cmpRes.Rate(cmpRes.ConfHybrid)
				tourRate += cmpRes.Rate(cmpRes.Tournament)
				bimRate += cmpRes.Rate(cmpRes.SoloA)
				gshRate += cmpRes.Rate(cmpRes.SoloB)
			}
			k := float64(len(workload.Suite()))
			fmt.Fprintf(&b, "hybrid:     mispredict%% bimodal %.2f, gshare %.2f, tournament %.2f, confidence-selected %.2f\n",
				100*bimRate/k, 100*gshRate/k, 100*tourRate/k, 100*confRate/k)
			o.Scalars["hybrid-conf%"] = 100 * confRate / k
			o.Scalars["hybrid-tournament%"] = 100 * tourRate / k

			// 4) Reverser: profile-derived reversal sets on the small
			// predictor (where >50% buckets are likelier).
			var deltaSum float64
			var setSum int
			for _, spec := range workload.Suite() {
				counts, err := s.modelCounts(o.ID, modelKey("reverser", spec.Name, s.Branches(), "pred=gshare4k|mech=smallreset12|thr=0.55"), 6, func(context.Context) ([]uint64, error) {
					// Profile and evaluation run on the same trace, so both
					// read fig10's 4096-entry pass histogram.
					pass, err := s.SuiteOne(predGshare4K, mechSmallReset12)
					if err != nil {
						return nil, err
					}
					run, err := pass.ByName(spec.Name)
					if err != nil {
						return nil, err
					}
					set := apps.ReverseSet(run.Buckets, 0.55)
					r := apps.Reverse(run.Buckets, set)
					return []uint64{r.Branches, r.BaseMisses, r.ReversedMisses, r.Reversals, r.GoodReversals, uint64(len(set))}, nil
				})
				if err != nil {
					return nil, err
				}
				res := apps.ReverserResult{Branches: counts[0], BaseMisses: counts[1], ReversedMisses: counts[2], Reversals: counts[3], GoodReversals: counts[4]}
				deltaSum += res.Delta()
				setSum += int(counts[5])
			}
			fmt.Fprintf(&b, "reverser:   mean mispredict-rate delta %.4f%% (negative = better), mean reversal-set size %.1f\n",
				100*deltaSum/k, float64(setSum)/k)
			o.Scalars["reverser-delta%"] = 100 * deltaSum / k

			o.Text = b.String()
			return o, nil
		},
	})
}
