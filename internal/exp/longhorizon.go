package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// The long-horizon experiment measures how confidence-table warmup and
// aliasing evolve with trace length: the paper's tables are trained on 1M
// branches per benchmark, but a CIR table's hot set keeps growing with the
// horizon, so coverage at a fixed branch fraction drifts as cold-start
// effects wash out and destructive aliasing accumulates in small tables.
// It sweeps the hardest benchmark (real_gcc, the largest static branch
// population) at three horizons — 1/16, 1/4 and all of the session budget —
// and reports each mechanism's mispredict coverage at 20% of dynamic
// branches plus the predictor's composite miss rate per horizon. The
// trace is walked once: the shorter horizons are prefix cuts of the walk.
//
// The experiment is OptIn: its interesting budgets (10^8 branches and up)
// dwarf a default report run. It runs bounded-memory when the session
// streams, making it the natural driver for memory-ceiling smoke checks.
func init() {
	register(Experiment{
		ID:    "longhorizon",
		Title: "Confidence-table warmup and aliasing vs trace length (real_gcc)",
		Paper: "not in the paper; extends Fig. 5/9 along the trace-length axis",
		OptIn: true,
		Run:   runLongHorizon,
	})
}

// batchEachHorizon is the -no-annotate reference: an independent interleaved pass per horizon.
func batchEachHorizon(cfg sim.SuiteConfig, horizons []uint64, newMechs []func() core.Mechanism) ([][]sim.SuiteResult, error) {
	out := make([][]sim.SuiteResult, len(horizons))
	for i, h := range horizons {
		cfg.Branches = h
		rs, err := sim.RunSuiteBatch(cfg, predGshare64K.New, newMechs)
		if err != nil {
			return nil, err
		}
		out[i] = rs
	}
	return out, nil
}

func runLongHorizon(s *Session) (*Output, error) {
	if s.Config().NoAnnotate {
		return longHorizon(s, batchEachHorizon)
	}
	return longHorizon(s, func(cfg sim.SuiteConfig, hs []uint64, nm []func() core.Mechanism) ([][]sim.SuiteResult, error) {
		return sim.RunSuiteHorizons(cfg, hs, predGshare64K.Key, predGshare64K.New, nm)
	})
}

// longHorizon renders the sweep from sweep's suite passes, one []SuiteResult per horizon.
func longHorizon(s *Session, sweep func(sim.SuiteConfig, []uint64, []func() core.Mechanism) ([][]sim.SuiteResult, error)) (*Output, error) {
	spec, err := workload.ByName("real_gcc")
	if err != nil {
		return nil, err
	}
	horizons := []uint64{max(s.Branches()/16, 1), max(s.Branches()/4, 1), s.Branches()}
	mechs := []struct {
		label string
		spec  MechSpec
	}{
		{"onelevel-pc^bhr", mechOneLevel(core.IndexPCxorBHR)},
		{"onelevel-1K", Mech(func() core.Mechanism {
			return core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, TableBits: 10})
		})},
		{"resetting", mechResetting},
	}
	newMechs := make([]func() core.Mechanism, len(mechs))
	for i, m := range mechs {
		newMechs[i] = m.spec.New
	}
	// Per-horizon budgets bypass the session pass cache; nil Source picks the sim default.
	cfg := s.Config()
	passes, err := sweep(sim.SuiteConfig{Specs: []workload.Spec{spec}, NoTally: cfg.NoTally, SegmentBranches: cfg.SegmentBranches}, horizons, newMechs)
	if err != nil {
		return nil, err
	}
	o := &Output{ID: "longhorizon", Title: "warmup and aliasing vs trace length", Scalars: map[string]float64{}}
	var b strings.Builder
	b.WriteString("horizon(branches)  miss%   ")
	for _, m := range mechs {
		fmt.Fprintf(&b, "%18s", m.label+"@20%")
	}
	b.WriteString("\n")
	for hi, h := range horizons {
		miss := 100 * passes[hi][0].CompositeMissRate()
		fmt.Fprintf(&b, "%17d  %5.2f  ", h, miss)
		o.Scalars[fmt.Sprintf("miss%%@%d", h)] = miss
		for i, m := range mechs {
			var curve analysis.Curve
			if cfg.NoCurveArtifact {
				curve = analysis.BuildCurve(analysis.CompositePooled(passes[hi][i].Stats()))
			} else {
				curve = s.Pooled(DerivedRuns(passes[hi][i].Stats()...)).Curve()
			}
			cov := curve.MispredsAt(20)
			fmt.Fprintf(&b, "%17.2f%%", cov)
			o.Scalars[fmt.Sprintf("%s@20%%@%d", m.label, h)] = cov
		}
		b.WriteString("\n")
	}
	o.Text = b.String()
	return o, nil
}
