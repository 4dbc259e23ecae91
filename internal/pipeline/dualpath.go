package pipeline

import (
	"fmt"

	"branchconf/internal/lane"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Cycle-level selective dual-path execution (§1, application 1): when a
// low-confidence branch is fetched and the spare path context is free, the
// machine fetches both targets. The price is bandwidth — while a fork is
// live, half the fetch width feeds the alternate path — and the reward is
// that a covered misprediction causes no wrong-path window: the correct
// continuation was being fetched all along.
//
// This is the time-domain counterpart of apps.RunDualPath (which counts
// penalty cycles at branch granularity): here the effect shows up directly
// in IPC.

// DualPathConfig describes the dual-path machine.
type DualPathConfig struct {
	// FetchWidth and Depth as in Config.
	FetchWidth int
	Depth      int
	// ForkWidth is the number of fetch slots the alternate path consumes
	// per cycle while a fork is live (taken from the primary path).
	ForkWidth int
}

// DefaultDualPath96 returns the 4-wide, 8-deep machine with a 2-slot
// alternate path.
func DefaultDualPath96() DualPathConfig {
	return DualPathConfig{FetchWidth: 4, Depth: 8, ForkWidth: 2}
}

// DualPathStats reports a dual-path run.
type DualPathStats struct {
	Stats
	Forks       uint64 // second paths spawned
	CoveredMiss uint64 // mispredictions whose wrong-path window a fork removed
	ForkSlots   uint64 // fetch slots diverted to alternate paths
}

// RunDualPath drives the dual-path machine over src, walking pred and est
// once to build the lanes RunDualPathLanes consumes. The estimator selects
// fork candidates and must be non-nil.
func RunDualPath(src trace.Source, pred predictor.Predictor, est ConfidenceSignal, cfg DualPathConfig) (DualPathStats, error) {
	l, err := lane.Capture(src, pred, est)
	if err != nil {
		return DualPathStats{}, err
	}
	return RunDualPathLanes(l, cfg)
}

// RunDualPathLanes drives the dual-path machine over one branch stream's
// lanes. Low-confidence branches are fork candidates, so the lanes must
// carry a low-confidence lane; only one fork may be live at a time (the
// paper's two-thread limit).
func RunDualPathLanes(l lane.Lanes, cfg DualPathConfig) (DualPathStats, error) {
	if cfg.FetchWidth < 1 {
		return DualPathStats{}, fmt.Errorf("pipeline: FetchWidth must be >= 1, got %d", cfg.FetchWidth)
	}
	if cfg.Depth < 1 {
		return DualPathStats{}, fmt.Errorf("pipeline: Depth must be >= 1, got %d", cfg.Depth)
	}
	if cfg.ForkWidth < 1 || cfg.ForkWidth >= cfg.FetchWidth {
		return DualPathStats{}, fmt.Errorf("pipeline: ForkWidth %d must be in [1, FetchWidth)", cfg.ForkWidth)
	}
	if l.Low == nil {
		return DualPathStats{}, fmt.Errorf("pipeline: dual-path execution requires a confidence estimator")
	}
	var st DualPathStats
	stream := newInstrStream(l.Recs)
	// Consumed from head, appended at the tail; compacted when drained so
	// the hot loop stays allocation-free (see RunLanes).
	var window []outBranch
	head := 0
	// forkUntil is the resolve cycle of the live fork (0 = no live fork);
	// forkCovers reports whether the forked branch was mispredicted.
	var forkUntil uint64
	forkCovers := false
	wrongPath := false
	streamDone := false

	for cycle := uint64(0); ; cycle++ {
		for head < len(window) && window[head].resolveAt <= cycle {
			b := window[head]
			head++
			if b.mispred {
				wrongPath = false
			}
		}
		if head == len(window) {
			window, head = window[:0], 0
		}
		if forkUntil != 0 && forkUntil <= cycle {
			// Fork resolves: a covered misprediction redirects instantly
			// (the alternate path is already flowing), so no wrong-path
			// window ever opened for it.
			forkUntil = 0
			forkCovers = false
		}

		if streamDone && head == len(window) && forkUntil == 0 {
			st.Cycles = cycle
			return st, nil
		}

		width := cfg.FetchWidth
		k := uint64(1) // cycles this fetch state holds for
		if wrongPath {
			// Fetch stays on the wrong path until the oldest in-flight
			// branch or the fork resolves: account those cycles at once.
			k = window[head].resolveAt - cycle
			if forkUntil != 0 && forkUntil-cycle < k {
				k = forkUntil - cycle
			}
		}
		if forkUntil != 0 {
			width -= cfg.ForkWidth
			st.ForkSlots += k * uint64(cfg.ForkWidth)
		}
		if wrongPath {
			st.WrongPath += k * uint64(width)
			cycle += k - 1
			continue
		}
		for slot := 0; slot < width; {
			gap, i, isBranch, done := stream.take(width - slot)
			if done {
				streamDone = true
				break
			}
			st.Retired += uint64(gap)
			slot += gap
			if !isBranch {
				break
			}
			st.Retired++
			slot++
			st.Branches++
			incorrect := l.Mispredicted(i)

			forked := false
			if l.LowConf(i) && forkUntil == 0 {
				// Spare context free: follow both paths for this branch.
				forkUntil = cycle + uint64(cfg.Depth)
				forkCovers = incorrect
				forked = true
				st.Forks++
			}
			covered := forked && forkCovers
			window = append(window, outBranch{resolveAt: cycle + uint64(cfg.Depth), mispred: incorrect && !covered})
			if incorrect {
				st.Misses++
				if covered {
					// Covered: the alternate path carries the correct
					// continuation; no wrong-path window.
					st.CoveredMiss++
				} else {
					wrongPath = true
					st.WrongPath += uint64(width - slot)
					break
				}
			}
		}
	}
}
