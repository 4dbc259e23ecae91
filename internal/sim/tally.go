package sim

import (
	"fmt"
	"sync"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Stage 3 of the simulation engine: geometry-keyed bucket streams. For a
// factorable mechanism (core.Factorable — one- and two-level CIR tables)
// the per-branch bucket sequence is a pure function of the annotated
// (PC, Taken, mispredict) stream and the table geometry, never of the
// reduction function, threshold, or counter policy layered on top. So the
// engine replays each annotated stream through each geometry exactly once,
// into a BucketStream: a packed per-branch bucket lane plus the base
// histogram of pattern → {events, misses} tallies. Every variant over the
// same geometry is then served by sharing the immutable histogram at O(1)
// marginal cost — no O(branches) replay — and the build itself runs a monomorphic
// raw-table kernel (core.Factorable.FillBucketLane) that is several times
// faster per branch than the interface-dispatched stage-2 replay.
//
// The factoring is exact: the lane records precisely the buckets the
// stage-2 replay would feed its accumulator, so the histogram has
// identical integer counts and every downstream artefact is byte-identical
// (asserted by TestTallyMatchesReplay and its siblings, which set
// SuiteConfig.noTally, and by the exp package's differential test against
// the interleaved reference).

// BucketStream is the stage-3 artifact for one (benchmark, predictor
// config, geometry) triple: the packed per-branch bucket lane and the base
// histogram tallied from it. A fully built stream is immutable and safe
// for concurrent use.
type BucketStream struct {
	lane   *bitvec.Dense
	stats  analysis.BucketStats // base histogram: bucket → {events, misses}
	n      int
	misses uint64
}

// Len returns the number of branches in the stream.
func (b *BucketStream) Len() int { return b.n }

// Bucket returns the i-th per-branch bucket (test and inspection access;
// bulk consumers use the histogram).
func (b *BucketStream) Bucket(i int) uint64 { return b.lane.At(i) }

// Lane returns the packed per-branch bucket lane. Like Stats it is shared
// and must be treated as read-only.
func (b *BucketStream) Lane() *bitvec.Dense { return b.lane }

// Stats returns the base histogram for use as a Result's bucket
// statistics. The map is shared by every variant served from this stream
// (and by the stream cache) and must be treated as read-only — which every
// consumer already is: Result.Buckets only ever feeds the read-only
// analysis composites and the Derive* partitions. Sharing makes the
// per-variant marginal cost O(1); a caller that genuinely needs a private
// mutable copy takes Stats().Clone().
func (b *BucketStream) Stats() analysis.BucketStats { return b.stats }

// Footprint returns the stream's payload bytes: the packed lane plus the
// base histogram's tally storage.
func (b *BucketStream) Footprint() uint64 {
	// Each histogram entry costs one Tally plus a map slot; 32 bytes is the
	// amortised cost on 64-bit platforms and keeps the bound honest.
	return b.lane.Bytes() + uint64(len(b.stats))*32
}

// matches reports whether a bucket stream read back from the artifact
// store agrees with a on branch and miss counts; a stream that does not was
// built over other branches and is treated as corruption.
func (a *AnnotatedStream) matches(bs *BucketStream) bool {
	return bs.n == a.n && bs.misses == a.misses
}

// fusedTallyLimit bounds the fused dense-histogram build path: for bucket
// widths up to 16 bits (every paper geometry) FillBucketLane counts into a
// flat 2<<width uint32 array while the bucket value is still in a register,
// and the separate lane pass (tallyLane) is skipped entirely. Wider lanes
// fall back to the word-parallel tally kernel over the finished lane.
const fusedTallyLimit = 16

// countsPool recycles the fused histogram arrays (512 KB at the width cap)
// between builds; only the 2<<width prefix in use is zeroed per build.
var countsPool = sync.Pool{
	New: func() any { return make([]uint32, 2<<fusedTallyLimit) },
}

// countsToStats converts a fused histogram into the map form the analysis
// layer consumes, walking buckets in ascending order and backing all
// tallies with one contiguous block. The integer counts are exactly what
// the stage-2 replay accumulator would produce.
func countsToStats(counts []uint32) analysis.BucketStats {
	occupied := 0
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			occupied++
		}
	}
	bs := make(analysis.BucketStats, occupied)
	block := make([]analysis.Tally, 0, occupied)
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			block = append(block, analysis.Tally{Events: uint64(counts[b]), Misses: uint64(counts[b+1])})
			bs[uint64(b>>1)] = &block[len(block)-1]
		}
	}
	return bs
}

// tallyLane is the word-parallel tally kernel: it folds the packed bucket
// lane against the packed mispredict bits into per-bucket tallies, loading
// one lane word per PerWord() branches and one miss word per 64. The
// result has exactly the integer counts the stage-2 replay accumulator
// would produce for the same stream.
func tallyLane(lane *bitvec.Dense, miss []uint64, n int) analysis.BucketStats {
	acc := newBucketAccum()
	var (
		words   = lane.Words()
		width   = lane.Width()
		perWord = lane.PerWord()
		mask    = uint64(1)<<width - 1
		wi      int
		shift   uint
		slot    uint
		laneWd  uint64
		missWd  uint64
	)
	if width == 64 {
		mask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		if uint(i)&63 == 0 {
			missWd = miss[i>>6]
		}
		if slot == 0 {
			laneWd = words[wi]
		}
		acc.add(laneWd>>shift&mask, missWd>>(uint(i)&63)&1 == 1)
		slot++
		shift += width
		if slot == perWord {
			slot, shift, wi = 0, 0, wi+1
		}
	}
	return acc.stats()
}

// bucketKey identifies one bucket stream: the benchmark and budget fix the
// branch stream, the predictor key fixes the mispredict bits, and the
// geometry key fixes the tables the stream walks.
type bucketKey struct {
	spec    workload.Spec
	n       uint64
	predKey string
	geom    string
}

// BucketTier memoizes bucket streams geometry-keyed, a sibling of
// AnnotatedTier.
var BucketTier memo.Tier

// bucketStreamFor returns the memoized bucket stream for one (benchmark,
// predictor config, geometry) triple, building lane and histogram on a
// miss in both the tier and the artifact store. The caller supplies the
// benchmark's (flat view, annotated stream) pair it already holds, so the
// bucket claim never touches the annotated tier. Concurrent claimants of
// the same key share one build. fm is only read (FillBucketLane replays a
// private copy of its initial state), so chunk-local mechanism instances
// are safe to pass from parallel goroutines.
func bucketStreamFor(cfg SuiteConfig, spec workload.Spec, predKey string, flat *trace.FlatView, ann *AnnotatedStream, fm core.Factorable) (*BucketStream, error) {
	n := cfg.Branches
	if n == 0 {
		n = spec.DefaultBranches
	}
	geom := fm.GeometryKey()
	v, err := BucketTier.Get(bucketKey{spec: spec, n: n, predKey: predKey, geom: geom}, func() (any, uint64, error) {
		key := bucketArtifactKey(spec, n, predKey, geom)
		if bs, ok := artifact.Load(artifact.KindBucketStream, key, unmarshalBucketStream, ann.matches); ok {
			return bs, bs.Footprint(), nil
		}
		width := fm.BucketWidth()
		lane := bitvec.NewDense(width, flat.Len())
		var stats analysis.BucketStats
		if width <= fusedTallyLimit {
			counts := countsPool.Get().([]uint32)
			used := counts[:2<<width]
			clear(used)
			fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, used)
			stats = countsToStats(used)
			countsPool.Put(counts)
		} else {
			fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, nil)
			stats = tallyLane(lane, ann.MissWords(), ann.n)
		}
		bs := &BucketStream{
			lane:   lane,
			n:      ann.n,
			misses: ann.misses,
			stats:  stats,
		}
		artifact.Save(artifact.KindBucketStream, key, func() []byte { return marshalBucketStream(bs) })
		return bs, bs.Footprint(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*BucketStream), nil
}

// bucketArtifactKey is the canonical disk-store key for one bucket stream:
// codec version, full spec identity, resolved budget, predictor config,
// and table geometry.
func bucketArtifactKey(spec workload.Spec, n uint64, predKey, geom string) string {
	return fmt.Sprintf("bucket|v%d|%s|n=%d|pred=%s|geom=%s", artifact.FormatVersion, spec.CacheKey(), n, predKey, geom)
}
