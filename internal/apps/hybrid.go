package apps

import (
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/lane"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// The hybrid-predictor selector (§1, application 3): a combining predictor
// needs to pick which component to believe for each branch. McFarling's
// chooser is a 2-bit counter trained on relative correctness; the paper
// suggests comparing explicit per-component confidence estimates instead.
// ConfidenceHybrid does exactly that: each component predictor carries its
// own resetting-counter confidence table (trained on that component's
// correctness), and the prediction comes from the component whose current
// confidence bucket is higher.
//
// Neither selector feeds back into what the components or their tables
// observe, so comparing hybrids needs only the components' lanes: their
// mispredict bits, their confidence tables' bucket lanes, and the PC
// (CompareHybridLanes).

// ConfidenceHybrid combines two predictors with confidence-based selection.
type ConfidenceHybrid struct {
	a, b       predictor.Predictor
	estA, estB core.Mechanism
	// preferB breaks confidence ties (the historically stronger
	// component should win ties; gshare usually goes in slot b).
	preferB bool
}

// NewConfidenceHybrid builds a confidence-selected hybrid. estA and estB
// must be fresh mechanisms of comparable geometry; preferB selects the
// tie-break winner.
func NewConfidenceHybrid(a, b predictor.Predictor, estA, estB core.Mechanism, preferB bool) *ConfidenceHybrid {
	return &ConfidenceHybrid{a: a, b: b, estA: estA, estB: estB, preferB: preferB}
}

// DefaultConfidenceHybrid pairs a bimodal and a gshare predictor with
// HybridTable confidence tables.
func DefaultConfidenceHybrid() *ConfidenceHybrid {
	return NewConfidenceHybrid(predictor.NewBimodal(12), predictor.NewGshare(12, 12), HybridTable(), HybridTable(), true)
}

// HybridTable returns a fresh component confidence table: 2^12 resetting
// counters indexed by PC xor a 12-bit BHR.
func HybridTable() *core.CounterTable {
	return core.NewCounterTable(core.CounterConfig{Kind: core.Resetting, Scheme: core.IndexPCxorBHR, TableBits: 12, HistoryBits: 12})
}

// Predict selects the component with the higher confidence bucket.
func (h *ConfidenceHybrid) Predict(r trace.Record) bool {
	ca, cb := h.estA.Bucket(r), h.estB.Bucket(r)
	if ca > cb || (ca == cb && !h.preferB) {
		return h.a.Predict(r)
	}
	return h.b.Predict(r)
}

// Update trains both components and both confidence tables with their own
// correctness.
func (h *ConfidenceHybrid) Update(r trace.Record) {
	incA := h.a.Predict(r) != r.Taken
	incB := h.b.Predict(r) != r.Taken
	h.a.Update(r)
	h.b.Update(r)
	h.estA.Update(r, incA)
	h.estB.Update(r, incB)
}

// Reset restores all four structures.
func (h *ConfidenceHybrid) Reset() {
	h.a.Reset()
	h.b.Reset()
	h.estA.Reset()
	h.estB.Reset()
}

// Name implements predictor.Predictor.
func (h *ConfidenceHybrid) Name() string {
	return "conf-hybrid(" + h.a.Name() + "," + h.b.Name() + ")"
}

// HybridComparison reports misprediction rates for the confidence-selected
// hybrid, a McFarling tournament of the same components, and both solo
// components, on the same trace.
type HybridComparison struct {
	Branches   uint64
	ConfHybrid uint64 // misses
	Tournament uint64
	SoloA      uint64
	SoloB      uint64
}

// Rate converts a miss count to a rate over the comparison's branches.
func (h HybridComparison) Rate(misses uint64) float64 {
	if h.Branches == 0 {
		return 0
	}
	return float64(misses) / float64(h.Branches)
}

// HybridLane is one component's input to CompareHybridLanes.
type HybridLane struct {
	// Miss is the component's mispredict lane.
	Miss []uint64
	// Conf is the bucket lane of the component's HybridTable, trained on
	// the component's correctness.
	Conf *bitvec.Dense
}

// CompareHybrids replays src once through a fresh component of each kind
// to build the lanes CompareHybridLanes consumes.
func CompareHybrids(src trace.Source, newA, newB func() predictor.Predictor, chooserBits uint) (HybridComparison, error) {
	la, err := lane.Capture(src, newA(), nil)
	if err != nil {
		return HybridComparison{}, err
	}
	lb, err := lane.Capture(trace.Trace(la.Recs).Source(), newB(), nil)
	if err != nil {
		return HybridComparison{}, err
	}
	side := func(miss []uint64) HybridLane {
		t := HybridTable()
		conf := bitvec.NewDense(t.BucketWidth(), len(la.Recs))
		t.FillBucketLane(la.Recs, miss, conf, nil)
		return HybridLane{Miss: miss, Conf: conf}
	}
	return CompareHybridLanes(la.Recs, side(la.Miss), side(lb.Miss), chooserBits), nil
}

// CompareHybridLanes scores the confidence-selected hybrid (ties to b, as
// DefaultConfidenceHybrid), a tournament with a 2^chooserBits-entry
// chooser, and both solo components over the records and the components'
// lanes.
func CompareHybridLanes(recs []trace.Record, a, b HybridLane, chooserBits uint) HybridComparison {
	pickA := lane.Greater(a.Conf, b.Conf)
	chooser := predictor.NewChooser(chooserBits)
	var res HybridComparison
	for i, r := range recs {
		missA, missB := lane.Bit(a.Miss, i), lane.Bit(b.Miss, i)
		res.Branches++
		if lane.Bit(pickA, i) {
			res.ConfHybrid += b2u(missA)
		} else {
			res.ConfHybrid += b2u(missB)
		}
		if chooser.PickB(r.PC) {
			res.Tournament += b2u(missB)
		} else {
			res.Tournament += b2u(missA)
		}
		res.SoloA += b2u(missA)
		res.SoloB += b2u(missB)
		chooser.Train(r.PC, !missA, !missB)
	}
	return res
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
