// Package lane is the per-branch input of the cycle and application models
// in internal/pipeline and internal/apps. Every one of those models
// consumes only what Fig. 1 hands a consumer of the confidence signal: for
// each dynamic branch, whether the prediction was correct and whether the
// estimator called it low confidence — plus the branch's instruction gap
// (and, for the hybrid chooser, its PC). The simulation engine already
// holds exactly these as lanes: the flat view's records, the annotated
// stream's mispredict bits, and the bucket lane of the estimator's table
// geometry (internal/sim). So a model is a pure function of a Lanes value,
// and the same model code runs off lanes the engine cached or off lanes
// Capture builds in one walk of a live predictor and estimator.
package lane

import (
	"io"

	"branchconf/internal/bitvec"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Lanes is one branch stream's model input. Bit lanes hold branch i's bit
// at bit i%64 of word i/64; all lanes cover the same len(Recs) branches.
// A Lanes value only reads its slices, so lanes shared with the engine's
// caches are safe to use from several models at once.
type Lanes struct {
	// Recs are the decoded branch records; models read Gap and PC.
	Recs []trace.Record
	// Miss is the mispredict bit per branch.
	Miss []uint64
	// Low is the low-confidence bit per branch; nil means every branch is
	// confident (no estimator in the loop).
	Low []uint64
}

// Len returns the number of branches.
func (l Lanes) Len() int { return len(l.Recs) }

// Mispredicted reports whether branch i was mispredicted.
func (l Lanes) Mispredicted(i int) bool { return Bit(l.Miss, i) }

// LowConf reports whether the estimator flagged branch i low confidence.
func (l Lanes) LowConf(i int) bool { return l.Low != nil && Bit(l.Low, i) }

// Bit returns bit i of a packed bit lane.
func Bit(words []uint64, i int) bool { return words[i>>6]>>(uint(i)&63)&1 != 0 }

// Below returns the low-confidence lane of a counter-valued bucket lane
// under a threshold: branch i is low confidence when its bucket is below
// thr, exactly core.CounterReducer's low set.
func Below(buckets *bitvec.Dense, thr uint64) []uint64 {
	n := buckets.Len()
	out := make([]uint64, 0, (n+63)/64)
	width, per, mask := buckets.Width(), int(buckets.PerWord()), valueMask(buckets.Width())
	var acc uint64
	bit := uint(0)
	for k, w := range buckets.Words() {
		m := per
		if rest := n - k*per; rest < m {
			m = rest
		}
		for s := 0; s < m; s++ {
			var low uint64
			if w&mask < thr {
				low = 1
			}
			acc |= low << bit
			w >>= width
			if bit++; bit == 64 {
				out = append(out, acc)
				acc, bit = 0, 0
			}
		}
	}
	if bit > 0 {
		out = append(out, acc)
	}
	return out
}

// Greater returns the lane of branches whose bucket in a exceeds the bucket
// in b. The lanes must have equal width and length.
func Greater(a, b *bitvec.Dense) []uint64 {
	if a.Width() != b.Width() || a.Len() != b.Len() {
		panic("lane: Greater over lanes of different shapes")
	}
	out := make([]uint64, (a.Len()+63)/64)
	width, per, mask := a.Width(), int(a.PerWord()), valueMask(a.Width())
	bw := b.Words()
	i := 0
	for k, wa := range a.Words() {
		wb := bw[k]
		for s := 0; s < per && i < a.Len(); s++ {
			if wa&mask > wb&mask {
				out[i>>6] |= 1 << (uint(i) & 63)
			}
			wa >>= width
			wb >>= width
			i++
		}
	}
	return out
}

func valueMask(width uint) uint64 { return ^uint64(0) >> (64 - width) }

// Signal is the live confidence estimator Capture consumes; core.Estimator
// satisfies it, and callers may substitute an oracle.
type Signal interface {
	// Confident reports the high/low signal for the upcoming prediction.
	Confident(r trace.Record) bool
	// Update trains the estimator with the prediction's correctness.
	Update(r trace.Record, incorrect bool)
}

// Capture walks src once through pred and est and returns the lanes a
// model needs: the records, the mispredict bit, and — when est is non-nil
// — the low-confidence bit. Each branch queries est before pred trains, as
// a live front end would. pred and est are consumed (trained) and must be
// fresh. A source error ends the walk and is returned.
func Capture(src trace.Source, pred predictor.Predictor, est Signal) (Lanes, error) {
	var l Lanes
	if est != nil {
		l.Low = []uint64{}
	}
	for i := 0; ; i++ {
		r, err := src.Next()
		if err == io.EOF {
			return l, nil
		}
		if err != nil {
			return Lanes{}, err
		}
		if i&63 == 0 {
			l.Miss = append(l.Miss, 0)
			if est != nil {
				l.Low = append(l.Low, 0)
			}
		}
		bit := uint64(1) << (uint(i) & 63)
		if est != nil && !est.Confident(r) {
			l.Low[i>>6] |= bit
		}
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		if est != nil {
			est.Update(r, incorrect)
		}
		if incorrect {
			l.Miss[i>>6] |= bit
		}
		l.Recs = append(l.Recs, r)
	}
}
