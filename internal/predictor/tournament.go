package predictor

import (
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

func init() {
	Register("tournament-64K", func() Predictor {
		return NewTournament(NewBimodal(14), NewGshare(14, 14), 14)
	})
}

// Tournament is McFarling's combining predictor: two component predictors
// and a Chooser. The paper's hybrid-selector application (§1, application
// 3) replaces this ad hoc chooser with an explicit confidence comparison;
// see internal/apps.
type Tournament struct {
	a, b    Predictor
	chooser *Chooser
}

// NewTournament combines predictors a and b with a 2^bits-entry chooser.
func NewTournament(a, b Predictor, bits uint) *Tournament {
	return &Tournament{a: a, b: b, chooser: NewChooser(bits)}
}

// Components returns the two combined predictors (a, b).
func (t *Tournament) Components() (Predictor, Predictor) { return t.a, t.b }

// Predict selects between the component predictions using the chooser.
func (t *Tournament) Predict(r trace.Record) bool {
	if t.chooser.PickB(r.PC) {
		return t.b.Predict(r)
	}
	return t.a.Predict(r)
}

// Update trains the chooser on both components' correctness, then both
// components.
func (t *Tournament) Update(r trace.Record) {
	t.chooser.Train(r.PC, t.a.Predict(r) == r.Taken, t.b.Predict(r) == r.Taken)
	t.a.Update(r)
	t.b.Update(r)
}

// Reset restores both components and the chooser.
func (t *Tournament) Reset() {
	t.a.Reset()
	t.b.Reset()
	t.chooser.Reset()
}

// Name implements Predictor.
func (t *Tournament) Name() string {
	return fmt.Sprintf("tournament(%s,%s)", t.a.Name(), t.b.Name())
}

// Chooser is McFarling's component selector: a table of 2-bit counters
// indexed by PC, trained toward whichever component was correct when they
// disagree. It needs only the two components' correctness, so models that
// hold the components' mispredict lanes drive it without the predictors.
type Chooser struct {
	table []bitvec.SatCounter
	bits  uint
}

// NewChooser returns a 2^bits-entry chooser. Counter state >= 2 selects
// component b.
func NewChooser(bits uint) *Chooser {
	if bits == 0 || bits > 24 {
		panic(fmt.Sprintf("predictor: tournament chooser bits %d out of range [1,24]", bits))
	}
	c := &Chooser{table: make([]bitvec.SatCounter, 1<<bits), bits: bits}
	c.Reset()
	return c
}

// PickB reports whether the chooser selects component b for this PC.
func (c *Chooser) PickB(pc uint64) bool {
	return c.table[bitvec.PCIndexBits(pc, c.bits)].PredictTaken()
}

// Train moves the PC's counter toward the component that was correct when
// exactly one was.
func (c *Chooser) Train(pc uint64, aCorrect, bCorrect bool) {
	i := bitvec.PCIndexBits(pc, c.bits)
	switch {
	case bCorrect && !aCorrect:
		c.table[i] = c.table[i].Inc()
	case aCorrect && !bCorrect:
		c.table[i] = c.table[i].Dec()
	}
}

// Reset restores every counter to weakly preferring b.
func (c *Chooser) Reset() {
	for i := range c.table {
		c.table[i] = bitvec.TwoBit(bitvec.WeaklyTaken)
	}
}
