package apps

import (
	"fmt"
	"math"

	"branchconf/internal/core"
	"branchconf/internal/lane"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// The SMT fetch-gating model (§1, application 2): several hardware threads
// share one fetch unit. Fetching down a thread whose pending branch is
// mispredicted wastes every instruction until the branch resolves. A
// confidence signal lets the fetch policy deprioritise threads whose next
// prediction is low-confidence, steering bandwidth toward threads likely
// on a correct path — the intuition behind Tullsen et al.'s fetch-policy
// findings that the paper cites.
//
// The model advances branch by branch: each "fetch slot" picks a thread,
// consumes that thread's next branch record plus its Gap instructions, and
// counts the instructions as useful or wasted according to whether the
// branch was mispredicted (everything fetched past a misprediction until
// it resolves is squashed; resolution takes ResolveSlots further slots).

// SMTConfig configures the fetch-gating model.
type SMTConfig struct {
	// ResolveSlots is how many fetch slots pass before a misprediction is
	// discovered and the thread squashed/redirected.
	ResolveSlots int
	// Gated selects the confidence-gated policy: skip threads whose next
	// prediction is low-confidence unless every thread is low-confidence.
	Gated bool
}

// SMTThread is one hardware thread's workload: a trace source with its own
// predictor and confidence estimator (private tables per context).
type SMTThread struct {
	Name string
	Src  trace.Source
	Pred predictor.Predictor
	Est  *core.Estimator
}

// SMTResult summarises a fetch-gating run.
type SMTResult struct {
	Slots        uint64 // fetch slots consumed
	Useful       uint64 // instructions fetched on correct paths
	Wasted       uint64 // instructions squashed after mispredictions
	GatedSkips   uint64 // times the policy skipped a low-confidence thread
	PerThreadUse []uint64
}

// Efficiency returns useful / (useful + wasted) fetch bandwidth.
func (r SMTResult) Efficiency() float64 {
	total := r.Useful + r.Wasted
	if total == 0 {
		return 0
	}
	return float64(r.Useful) / float64(total)
}

// RunSMT drives the threads until any thread's trace ends (keeping thread
// loads comparable) or maxSlots fetch slots elapse. Each thread's source is
// walked once through its predictor and estimator to build the lanes
// RunSMTLanes consumes; no thread is read past the maxSlots+1 records the
// run can reach.
func RunSMT(threads []*SMTThread, cfg SMTConfig, maxSlots uint64) (SMTResult, error) {
	limit := maxSlots
	if limit < math.MaxUint64 {
		limit++ // the lookahead record
	}
	lanes := make([]lane.Lanes, len(threads))
	for i, th := range threads {
		l, err := lane.Capture(trace.Limit(th.Src, limit), th.Pred, th.Est)
		if err != nil {
			return SMTResult{}, fmt.Errorf("apps: SMT thread %s: %w", th.Name, err)
		}
		lanes[i] = l
	}
	return RunSMTLanes(lanes, cfg, maxSlots)
}

// smtThread is one thread's fetch state in a lane-driven run.
type smtThread struct {
	l      lane.Lanes
	next   int // lookahead branch index; == l.Len() once the trace ends
	squash int // slots until a pending misprediction resolves
}

func (t *smtThread) done() bool { return t.next == t.l.Len() }

// RunSMTLanes drives one lane set per thread until any thread's branches
// run out or maxSlots fetch slots elapse. The gated policy reads each
// thread's low-confidence lane at its lookahead branch.
func RunSMTLanes(lanes []lane.Lanes, cfg SMTConfig, maxSlots uint64) (SMTResult, error) {
	if len(lanes) == 0 {
		return SMTResult{}, fmt.Errorf("apps: RunSMT needs at least one thread")
	}
	if cfg.ResolveSlots < 1 {
		return SMTResult{}, fmt.Errorf("apps: ResolveSlots must be >= 1")
	}
	res := SMTResult{PerThreadUse: make([]uint64, len(lanes))}
	threads := make([]smtThread, len(lanes))
	for i, l := range lanes {
		threads[i].l = l
	}
	rr := 0
	for res.Slots < maxSlots {
		// Retire squash windows.
		for i := range threads {
			if threads[i].squash > 0 {
				threads[i].squash--
			}
		}
		pick := -1
		// Round-robin scan; the gated policy passes over threads whose
		// next prediction is low confidence (or which are mid-squash).
		for scan := 0; scan < len(threads); scan++ {
			i := (rr + scan) % len(threads)
			th := &threads[i]
			if th.done() || th.squash > 0 {
				continue
			}
			if cfg.Gated && th.l.LowConf(th.next) {
				res.GatedSkips++
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			// All gated or squashed: fall back to any runnable thread so
			// the machine never idles on a full workload.
			for scan := 0; scan < len(threads); scan++ {
				i := (rr + scan) % len(threads)
				if !threads[i].done() && threads[i].squash == 0 {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			// Everything mid-squash: burn a slot.
			res.Slots++
			continue
		}
		th := &threads[pick]
		rr = (pick + 1) % len(threads)
		b := th.next
		th.next++

		fetched := uint64(th.l.Recs[b].Gap) + 1
		if th.l.Mispredicted(b) {
			// The branch itself is useful; what follows until resolution
			// is wasted. Approximate the squashed run as the next
			// ResolveSlots slots of this thread's fetch.
			res.Useful += 1
			res.Wasted += fetched - 1
			th.squash = cfg.ResolveSlots
		} else {
			res.Useful += fetched
			res.PerThreadUse[pick] += fetched
		}
		res.Slots++
		if th.done() {
			return res, nil // stop at first exhausted thread
		}
	}
	return res, nil
}
