// Package pipeline is a cycle-driven front-end model for evaluating
// confidence-directed fetch policies at IPC level. It complements the
// branch-granularity models in internal/apps: here fetch bandwidth, branch
// resolution latency and wrong-path fetch are accounted per cycle, so
// policies report both performance (IPC) and wasted work.
//
// The machine is a W-wide in-order front end. Instructions stream from a
// branch trace (each record is Gap non-branch instructions followed by one
// conditional branch). A branch resolves Depth cycles after it is fetched;
// a mispredicted branch puts fetch on the wrong path until it resolves —
// those fetch slots are wasted work, and the time cost of a misprediction
// is the Depth-cycle refill this implies. Confidence-based gating stalls
// fetch while too many low-confidence branches are unresolved, saving
// wrong-path slots at the price of stalling correct-path fetch when the
// estimator was overly pessimistic.
package pipeline

import (
	"fmt"

	"branchconf/internal/lane"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// ConfidenceSignal is the estimator interface the source-driven entry
// points consume: core.Estimator satisfies it, and tests/experiments may
// substitute an oracle for upper-bound studies.
type ConfidenceSignal = lane.Signal

// Config describes the modelled machine.
type Config struct {
	// FetchWidth is the number of instructions fetched per cycle.
	FetchWidth int
	// Depth is the number of cycles between fetching a branch and
	// resolving it (the misprediction penalty).
	Depth int
	// GateThreshold stalls fetch while at least this many low-confidence
	// branches are unresolved; 0 disables gating.
	GateThreshold int
}

// Default96 returns a mid-1990s-flavoured 4-wide, 8-deep machine.
func Default96() Config { return Config{FetchWidth: 4, Depth: 8} }

// Stats is the outcome of one pipeline run.
type Stats struct {
	Cycles     uint64 // total cycles until the stream drains
	Retired    uint64 // correct-path instructions fetched (eventually retired)
	WrongPath  uint64 // wrong-path instructions fetched (squashed work)
	GateStalls uint64 // fetch slots unused because the gate was closed
	Branches   uint64 // conditional branches retired
	Misses     uint64 // mispredicted branches
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// WasteFrac returns wrong-path work as a fraction of all fetched work.
func (s Stats) WasteFrac() float64 {
	total := s.Retired + s.WrongPath
	if total == 0 {
		return 0
	}
	return float64(s.WrongPath) / float64(total)
}

// outBranch tracks an unresolved branch in flight.
type outBranch struct {
	resolveAt uint64
	mispred   bool
	lowConf   bool
}

// instrStream expands a branch lane into an instruction-granularity
// stream: Gap non-branch instructions precede each branch.
type instrStream struct {
	recs    []trace.Record
	next    int // index of the next branch
	gapLeft int // gap instructions still ahead of branch next
}

func newInstrStream(recs []trace.Record) instrStream {
	s := instrStream{recs: recs}
	if len(recs) > 0 {
		s.gapLeft = int(recs[0].Gap)
	}
	return s
}

// take fetches from the stream into room free slots: the gap
// instructions ahead of the next branch, up to room of them, and then —
// if a slot is left — the branch itself, reported as its index i with
// isBranch set. done reports an exhausted stream, with nothing taken.
// Taking a whole gap run per call keeps the per-cycle cost at O(branches
// fetched), not O(instructions).
func (s *instrStream) take(room int) (gap, i int, isBranch, done bool) {
	if s.next == len(s.recs) {
		return 0, 0, false, true
	}
	if s.gapLeft >= room {
		s.gapLeft -= room
		return room, 0, false, false
	}
	gap, i = s.gapLeft, s.next
	if s.next++; s.next < len(s.recs) {
		s.gapLeft = int(s.recs[s.next].Gap)
	}
	return gap, i, true, false
}

// Run drives the machine over src, walking pred and est once to build the
// lanes RunLanes consumes. The estimator may be nil when gating is
// disabled; with gating enabled it must be non-nil.
func Run(src trace.Source, pred predictor.Predictor, est ConfidenceSignal, cfg Config) (Stats, error) {
	l, err := lane.Capture(src, pred, est)
	if err != nil {
		return Stats{}, err
	}
	return RunLanes(l, cfg)
}

// RunLanes drives the machine over one branch stream's lanes: the gap
// lane feeds fetch, the mispredict lane opens wrong-path windows, and the
// low-confidence lane drives the gate. Gating requires a low-confidence
// lane.
func RunLanes(l lane.Lanes, cfg Config) (Stats, error) {
	if cfg.FetchWidth < 1 {
		return Stats{}, fmt.Errorf("pipeline: FetchWidth must be >= 1, got %d", cfg.FetchWidth)
	}
	if cfg.Depth < 1 {
		return Stats{}, fmt.Errorf("pipeline: Depth must be >= 1, got %d", cfg.Depth)
	}
	if cfg.GateThreshold < 0 {
		return Stats{}, fmt.Errorf("pipeline: GateThreshold must be >= 0, got %d", cfg.GateThreshold)
	}
	if cfg.GateThreshold > 0 && l.Low == nil {
		return Stats{}, fmt.Errorf("pipeline: gating requires a confidence estimator")
	}
	var st Stats
	stream := newInstrStream(l.Recs)
	// window is consumed from head and appended at the tail; compacting once
	// drained (instead of re-slicing) reuses its capacity, keeping the hot
	// loop allocation-free.
	var window []outBranch
	head := 0
	lowInFlight := 0
	wrongPath := false
	streamDone := false

	for cycle := uint64(0); ; cycle++ {
		// Resolve branches due this cycle (in fetch order).
		for head < len(window) && window[head].resolveAt <= cycle {
			b := window[head]
			head++
			if b.lowConf {
				lowInFlight--
			}
			if b.mispred {
				// Redirect: younger in-flight branches were wrong-path
				// bookkeeping only (none were real — fetch stopped
				// consuming the stream), so simply leave wrong-path mode.
				wrongPath = false
			}
		}
		if head == len(window) {
			window, head = window[:0], 0
		}

		if streamDone && head == len(window) {
			st.Cycles = cycle
			return st, nil
		}

		// A closed gate idles the whole fetch group; fetch past a
		// misprediction wastes it. Either way nothing changes until the
		// oldest in-flight branch resolves, so account those cycles at once.
		if gated := cfg.GateThreshold > 0 && lowInFlight >= cfg.GateThreshold; gated || wrongPath {
			k := window[head].resolveAt - cycle
			if gated {
				st.GateStalls += k * uint64(cfg.FetchWidth)
			} else {
				st.WrongPath += k * uint64(cfg.FetchWidth)
			}
			cycle += k - 1
			continue
		}

		// Fetch up to FetchWidth instructions.
		for slot := 0; slot < cfg.FetchWidth; {
			gap, i, isBranch, done := stream.take(cfg.FetchWidth - slot)
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
			b := outBranch{resolveAt: cycle + uint64(cfg.Depth), mispred: incorrect, lowConf: l.LowConf(i)}
			if b.lowConf {
				lowInFlight++
			}
			window = append(window, b)
			if incorrect {
				// The rest of the group goes down the mispredicted path:
				// pure waste.
				st.Misses++
				wrongPath = true
				st.WrongPath += uint64(cfg.FetchWidth - slot)
				break
			}
		}
	}
}
