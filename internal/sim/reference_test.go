package sim

import (
	"fmt"
	"io"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Reference walks for this package's tests: one mechanism through
// RunBatch, and the online estimator walks DeriveEstimator and
// DeriveMulti reconstruct from bucket tallies.

// runOne replays src through pred and mech alone, reading every bucket
// live: a state-coupled mechanism asks the predictor itself, not the
// captured annotation state RunBatch would feed it.
func runOne(src trace.Source, pred predictor.Predictor, mech core.Mechanism) (Result, error) {
	rs, err := RunBatch(src, pred, []core.Mechanism{liveOnly{mech}})
	return rs[0], err
}

// liveOnly exposes only a mechanism's Mechanism methods, hiding
// core.StateCoupled.
type liveOnly struct{ core.Mechanism }

// runSuiteOne is RunSuiteBatch for a single mechanism.
func runSuiteOne(cfg SuiteConfig, newPred func() predictor.Predictor, newMech func() core.Mechanism) (SuiteResult, error) {
	rs, err := RunSuiteBatch(cfg, newPred, []func() core.Mechanism{newMech})
	if err != nil {
		return SuiteResult{}, err
	}
	return rs[0], nil
}

// nullMech is a single-bucket mechanism, for runs where only predictor
// accuracy is of interest.
type nullMech struct{}

func (nullMech) Bucket(trace.Record) uint64 { return 0 }
func (nullMech) Update(trace.Record, bool)  {}
func (nullMech) Reset()                     {}
func (nullMech) Name() string               { return "null" }

// RunEstimator replays src through pred and the online estimator,
// recording the confusion summary.
func RunEstimator(src trace.Source, pred predictor.Predictor, est *core.Estimator) (EstimatorResult, error) {
	var res EstimatorResult
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("sim: reading trace: %w", err)
		}
		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		res.Branches++
		if !confident {
			res.Low++
		}
		if incorrect {
			res.Misses++
			if !confident {
				res.LowMisses++
			}
		}
	}
}

// RunMulti replays src through pred and the multi-level estimator.
func RunMulti(src trace.Source, pred predictor.Predictor, est *core.MultiEstimator) (MultiResult, error) {
	res := MultiResult{Levels: make([]LevelTally, est.Levels())}
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("sim: reading trace: %w", err)
		}
		level := est.Level(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		res.Levels[level].Branches++
		if incorrect {
			res.Levels[level].Misses++
		}
	}
}
