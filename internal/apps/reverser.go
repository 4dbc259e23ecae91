package apps

import (
	"fmt"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
)

// The branch prediction reverser (§1, application 4): if the confidence in
// a prediction can be determined to be below 50%, the prediction should be
// inverted. Whether any bucket actually exceeds 50% misprediction rate is
// an empirical question — the paper's Table 1 shows the hottest resetting-
// counter bucket at 37.6%, so a naive "reverse the lowest bucket" hurts.
// ProfileReverser therefore derives the reversal set from a profiling pass:
// only buckets measured above the threshold get reversed.
//
// The reverser trains on the original prediction's correctness, so it never
// changes what the predictor or mechanism observe: both the reversal set
// and its evaluation are functions of a run's (bucket → events, misses)
// histogram — the histogram a suite pass already holds.

// ReverserResult compares a predictor with and without reversal.
type ReverserResult struct {
	Branches       uint64
	BaseMisses     uint64 // plain predictor
	ReversedMisses uint64 // with reversal applied
	Reversals      uint64 // predictions inverted
	GoodReversals  uint64 // inversions that fixed a misprediction
}

// Delta returns the change in misprediction rate (negative = improvement).
func (r ReverserResult) Delta() float64 {
	if r.Branches == 0 {
		return 0
	}
	return (float64(r.ReversedMisses) - float64(r.BaseMisses)) / float64(r.Branches)
}

// ReverseSet returns the buckets of a profiling histogram whose
// misprediction rate exceeds threshold (0.5 for a true reverser). The
// returned set may be empty — the paper's data suggests it often is for
// well-tuned predictors, which is itself a reproducible finding.
func ReverseSet(profile analysis.BucketStats, threshold float64) []uint64 {
	var set []uint64
	for b, t := range profile {
		// Require a minimum population so a handful of unlucky events
		// cannot nominate a bucket.
		if t.Events >= 64 && t.Rate() > threshold {
			set = append(set, b)
		}
	}
	return set
}

// Reverse evaluates a reversal set on an evaluation run's histogram:
// every branch in a reversed bucket is inverted, fixing the bucket's
// misses and breaking its hits.
func Reverse(eval analysis.BucketStats, reverseSet []uint64) ReverserResult {
	var res ReverserResult
	for _, t := range eval {
		res.Branches += t.Events
		res.BaseMisses += t.Misses
	}
	seen := make(map[uint64]bool, len(reverseSet))
	for _, b := range reverseSet {
		t, ok := eval[b]
		if !ok || seen[b] {
			continue
		}
		seen[b] = true
		res.Reversals += t.Events
		res.GoodReversals += t.Misses
	}
	res.ReversedMisses = res.BaseMisses - 2*res.GoodReversals + res.Reversals
	return res
}

// ProfileReverseSet runs a profiling pass of src through pred and mech and
// returns ReverseSet of its histogram.
func ProfileReverseSet(src trace.Source, pred predictor.Predictor, mech core.Mechanism, threshold float64) ([]uint64, error) {
	run, err := sim.Run(src, pred, mech)
	if err != nil {
		return nil, err
	}
	return ReverseSet(run.Buckets, threshold), nil
}

// RunReverser replays src through pred and mech and evaluates reverseSet
// on the run's histogram. The predictor and mechanism must be fresh
// instances (the profiling pass has its own).
func RunReverser(src trace.Source, pred predictor.Predictor, mech core.Mechanism, reverseSet []uint64) (ReverserResult, error) {
	run, err := sim.Run(src, pred, mech)
	if err != nil {
		return ReverserResult{}, err
	}
	return Reverse(run.Buckets, reverseSet), nil
}

// ReverserStudy profiles on one seed of a benchmark and evaluates on the
// benchmark itself, returning the result and the reversal set size.
func ReverserStudy(profileSrc, evalSrc trace.Source, newPred func() predictor.Predictor, newMech func() core.Mechanism, threshold float64) (ReverserResult, int, error) {
	set, err := ProfileReverseSet(profileSrc, newPred(), newMech(), threshold)
	if err != nil {
		return ReverserResult{}, 0, fmt.Errorf("apps: profiling reverser: %w", err)
	}
	res, err := RunReverser(evalSrc, newPred(), newMech(), set)
	if err != nil {
		return ReverserResult{}, 0, fmt.Errorf("apps: evaluating reverser: %w", err)
	}
	return res, len(set), nil
}
