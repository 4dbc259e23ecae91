package sim

import (
	"sync"

	"branchconf/internal/analysis"
)

// denseBuckets bounds the dense fast path of bucketAccum. Counter values
// (≤ CounterMax), ones counts, and CIR patterns up to 16 bits land in a
// flat array — one indexed add per branch instead of a map probe, which
// profiling shows dominating the simulation loop otherwise. Wider CIR
// patterns and static branch addresses spill to the map.
const denseBuckets = 1 << 16

// bucketAccum accumulates per-bucket tallies with a dense fast path. It
// produces exactly the integer counts BucketStats.Add would, so swapping it
// into a simulation loop cannot perturb any artefact.
type bucketAccum struct {
	dense   []analysis.Tally // lazily allocated on the first small bucket
	touched []uint32         // dense buckets hit at least once, in first-hit order
	sparse  analysis.BucketStats
}

func newBucketAccum() *bucketAccum {
	return &bucketAccum{sparse: make(analysis.BucketStats)}
}

// denseState is one pooled dense accumulator: the 1 MiB tally array plus
// its touched-bucket list, recycled together so stats only ever walks (and
// re-zeroes) the slots a pass actually occupied instead of all 2^16.
type denseState struct {
	tallies []analysis.Tally
	touched []uint32
}

// densePool recycles the dense arrays between passes. A report run makes
// hundreds of passes; without the pool each one allocates and zeroes its
// own array, and the churn shows up as both GC time and memclr.
var densePool = sync.Pool{
	New: func() any {
		return &denseState{tallies: make([]analysis.Tally, denseBuckets)}
	},
}

func (a *bucketAccum) add(bucket uint64, incorrect bool) {
	if bucket < denseBuckets {
		if a.dense == nil {
			st := densePool.Get().(*denseState)
			a.dense, a.touched = st.tallies, st.touched[:0]
		}
		t := &a.dense[bucket]
		if t.Events == 0 {
			a.touched = append(a.touched, uint32(bucket))
		}
		t.Events++
		if incorrect {
			t.Misses++
		}
		return
	}
	a.sparse.Add(bucket, incorrect)
}

// snapshot returns the counts so far as a fresh map and leaves the
// accumulator running.
func (a *bucketAccum) snapshot() analysis.BucketStats {
	bs := make(analysis.BucketStats, len(a.sparse)+len(a.touched))
	for b, t := range a.sparse {
		c := *t
		bs[b] = &c
	}
	for _, b := range a.touched {
		c := a.dense[b]
		bs[uint64(b)] = &c
	}
	return bs
}

// stats folds the dense array into the sparse map and returns it. The
// accumulator must not be used afterwards. Occupied dense buckets share one
// backing block instead of one heap object each; a wide CIR accumulator has
// tens of thousands of them per (benchmark, mechanism) pass.
func (a *bucketAccum) stats() analysis.BucketStats {
	bs := a.sparse
	if len(a.touched) > 0 {
		block := make([]analysis.Tally, 0, len(a.touched))
		for _, b := range a.touched {
			block = append(block, a.dense[b])
			bs[uint64(b)] = &block[len(block)-1]
			a.dense[b] = analysis.Tally{}
		}
	}
	if a.dense != nil {
		densePool.Put(&denseState{tallies: a.dense, touched: a.touched})
	}
	a.dense, a.touched, a.sparse = nil, nil, nil
	return bs
}
