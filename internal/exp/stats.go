package exp

import (
	"branchconf/internal/artifact"
	"branchconf/internal/memo"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// CacheTier is one engine cache's name and uniform counter quad, in the
// order the pipeline consults them.
type CacheTier struct {
	Name  string
	Stats artifact.TierStats
}

// CacheTiers snapshots every tier of the cache hierarchy the engine runs
// on — materialize memo, annotated-stream LRU, bucket-stream LRU,
// model-stats LRU, curve LRU, the persistent disk store, the streaming
// engine's segment tier, and the disk store's remote tier — under one uniform
// hit/miss/eviction/resident quad (plus the disk tier's health columns:
// verify failures, op errors, and the degraded flag a tripped breaker
// raises), so the -cache-stats table renders all tiers identically. The
// per-session pass cache (Session.Stats) sits above all of these and is
// reported by the caller that owns the session.
func CacheTiers() []CacheTier {
	return []CacheTier{
		{Name: "trace-memo", Stats: tierStats(&workload.TraceTier)},
		{Name: "annotated-stream", Stats: tierStats(&sim.AnnotatedTier)},
		{Name: "bucket-stream", Stats: tierStats(&sim.BucketTier)},
		{Name: "model-stats", Stats: tierStats(&ModelTier)},
		{Name: "curve", Stats: tierStats(&CurveTier)},
		{Name: "artifact-disk", Stats: artifact.Report()},
		// The streaming engine's segment counters ride the same quad: warm
		// vs live segment payloads as hits/misses, forceLive unit retries as
		// verify failures, and the in-flight segment-bytes high-water mark
		// as resident bytes.
		{Name: "stream-segment", Stats: sim.StreamReport()},
		// The remote artifact tier layered under the disk store. Its quad is
		// remapped where disk columns have no network meaning: resident_bytes
		// counts record bytes moved over the wire (both directions) and
		// evictions counts write-behind Puts shed by a full queue or a
		// degraded tier.
		{Name: "remote-artifact", Stats: artifact.RemoteReport()},
	}
}

// tierStats widens an in-memory tier's snapshot to the uniform quad; the
// health columns stay zero.
func tierStats(t *memo.Tier) artifact.TierStats {
	st := t.Stats()
	return artifact.TierStats{Hits: st.Hits, Misses: st.Misses, Coalesced: st.Coalesced, Evictions: st.Evictions, ResidentBytes: st.ResidentBytes}
}

// SetCacheBound bounds the resident payload bytes of each in-memory engine
// tier — annotated streams with their flat views, bucket streams, model
// stats and curves — at bytes apiece; 0 removes the bounds. The trace memo
// is never bounded.
func SetCacheBound(bytes uint64) {
	for _, t := range []*memo.Tier{&sim.AnnotatedTier, &sim.BucketTier, &ModelTier, &CurveTier} {
		t.SetBound(bytes)
	}
}
