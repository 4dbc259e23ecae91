package lane

import (
	"errors"
	"fmt"
	"testing"

	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/xrand"
)

// randDense fills a width-bit lane with n pseudo-random values.
func randDense(rng *xrand.RNG, width uint, n int) *bitvec.Dense {
	d := bitvec.NewDense(width, n)
	for i := 0; i < n; i++ {
		d.Append(rng.Uint64())
	}
	return d
}

// TestBelowAndGreaterMatchAt: the streaming lane derivations agree with
// per-index At reads at every width, across word boundaries and ragged
// tails.
func TestBelowAndGreaterMatchAt(t *testing.T) {
	rng := xrand.New(7)
	for _, width := range []uint{1, 5, 7, 16, 33, 64} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			t.Run(fmt.Sprintf("w=%d/n=%d", width, n), func(t *testing.T) {
				a, b := randDense(rng, width, n), randDense(rng, width, n)
				thr := uint64(1) << (width - 1)
				below, greater := Below(a, thr), Greater(a, b)
				if len(below) != (n+63)/64 || len(greater) != (n+63)/64 {
					t.Fatalf("lane words %d/%d for %d branches", len(below), len(greater), n)
				}
				for i := 0; i < n; i++ {
					if got, want := Bit(below, i), a.At(i) < thr; got != want {
						t.Fatalf("Below bit %d = %v, want %v", i, got, want)
					}
					if got, want := Bit(greater, i), a.At(i) > b.At(i); got != want {
						t.Fatalf("Greater bit %d = %v, want %v", i, got, want)
					}
				}
			})
		}
	}
}

// TestCaptureMatchesLiveWalk: the captured lanes are exactly what a live
// front end sees — the estimator queried before either structure trains.
func TestCaptureMatchesLiveWalk(t *testing.T) {
	tr := make(trace.Trace, 300)
	rng := xrand.New(3)
	for i := range tr {
		tr[i] = trace.Record{PC: 0x1000 + 4*(rng.Uint64()%32), Taken: rng.Uint64()%3 != 0, Gap: uint32(i % 5)}
	}
	l, err := Capture(tr.Source(), predictor.Gshare4K(), core.PaperEstimator(4))
	if err != nil {
		t.Fatal(err)
	}
	pred, est := predictor.Gshare4K(), core.PaperEstimator(4)
	if l.Len() != len(tr) {
		t.Fatalf("captured %d branches, want %d", l.Len(), len(tr))
	}
	for i, r := range tr {
		low := !est.Confident(r)
		miss := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, miss)
		if l.Recs[i] != r || l.Mispredicted(i) != miss || l.LowConf(i) != low {
			t.Fatalf("branch %d: lanes (%v, miss %v, low %v), live (%v, %v, %v)", i, l.Recs[i], l.Mispredicted(i), l.LowConf(i), r, miss, low)
		}
	}

	none, err := Capture(tr.Source(), predictor.Gshare4K(), nil)
	if err != nil || none.Low != nil || none.LowConf(0) {
		t.Fatalf("capture without an estimator: low lane %v, err %v", none.Low, err)
	}
	empty, err := Capture(trace.Trace{}.Source(), predictor.Gshare4K(), core.PaperEstimator(4))
	if err != nil || empty.Len() != 0 || empty.Low == nil {
		t.Fatalf("empty capture with an estimator: %+v, err %v", empty, err)
	}
}

type failSource struct{ err error }

func (f failSource) Next() (trace.Record, error) { return trace.Record{}, f.err }

func TestCapturePropagatesSourceError(t *testing.T) {
	boom := errors.New("truncated")
	if _, err := Capture(failSource{boom}, predictor.Gshare4K(), nil); !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the source error", err)
	}
}
