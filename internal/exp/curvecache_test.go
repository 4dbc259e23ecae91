package exp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// TestCurveCodecRoundTrip: the curve codec must reproduce every field
// bit-exactly — the tier's byte-identical-report guarantee rests on floats
// surviving the trip through their IEEE 754 bit patterns.
func TestCurveCodecRoundTrip(t *testing.T) {
	cv := analysis.Curve{
		{Key: analysis.Key{Run: -1, Bucket: 0}, Rate: 0.1, EventsPct: 1.0 / 3.0, MissesPct: 0, CumEventsPct: 33.333333333333336, CumMissesPct: 100},
		{Key: analysis.Key{Run: 7, Bucket: math.MaxUint64}, Rate: math.Nextafter(0.5, 1), EventsPct: 5e-324, MissesPct: math.MaxFloat64, CumEventsPct: 99.9, CumMissesPct: 0.0625},
	}
	dec, err := unmarshalCurve(marshalCurve(cv))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(cv) {
		t.Fatalf("round-trip length %d, want %d", len(dec), len(cv))
	}
	for i := range cv {
		if dec[i] != cv[i] {
			t.Errorf("point %d: %+v != %+v", i, dec[i], cv[i])
		}
	}
	// Empty curves marshal and decode as nil, matching what BuildCurve
	// returns for an empty composite.
	if dec, err := unmarshalCurve(marshalCurve(nil)); err != nil || dec != nil {
		t.Fatalf("empty curve round-trip: %v, %v", dec, err)
	}
}

// TestCurveCodecFailsClosed: any structural damage to a curve payload is an
// error, never a partial or padded curve.
func TestCurveCodecFailsClosed(t *testing.T) {
	payload := marshalCurve(analysis.Curve{
		{Key: analysis.Key{Run: 0, Bucket: 3}, Rate: 0.25},
		{Key: analysis.Key{Run: 1, Bucket: 9}, Rate: 0.75},
	})
	cases := map[string][]byte{
		"empty":           {},
		"short header":    payload[:5],
		"truncated point": payload[:len(payload)-8],
		"trailing bytes":  append(append([]byte{}, payload...), 0),
		"count mismatch": func() []byte {
			p := append([]byte{}, payload...)
			p[0]++ // claims one more point than the bytes hold
			return p
		}(),
	}
	for name, data := range cases {
		if cv, err := unmarshalCurve(data); err == nil {
			t.Errorf("%s: decoded to %d points, want error", name, len(cv))
		}
	}
}

// TestMergedRequiresDescriptor: an anonymous reduction cannot be cached —
// the descriptor is the function's cache identity — so Merged("") panics
// rather than risking cross-reduction aliasing.
func TestMergedRequiresDescriptor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merged(\"\") did not panic")
		}
	}()
	s := NewSession(Config{})
	s.Pooled(RunSet{}).Merged("", func(b uint64) uint64 { return b })
}

// TestHashRunsKeysContent: the content hash must be invariant to bucket-map
// iteration order and sensitive to every statistic, to run order, to empty
// runs and to run boundaries — and combining stored per-run digests must
// give exactly the hash of the tallies themselves.
func TestHashRunsKeysContent(t *testing.T) {
	a := analysis.BucketStats{1: {Events: 10, Misses: 2}, 2: {Events: 5, Misses: 1}}
	b := analysis.BucketStats{2: {Events: 5, Misses: 1}, 1: {Events: 10, Misses: 2}}
	if analysis.HashRuns([]analysis.BucketStats{a}) != analysis.HashRuns([]analysis.BucketStats{b}) {
		t.Error("hash depends on bucket insertion order")
	}
	// A large map iterates in a different order on every range; its
	// digest must not move.
	big := analysis.BucketStats{}
	for k := uint64(0); k < 4096; k++ {
		big[k*7919] = &analysis.Tally{Events: k + 1, Misses: k / 3}
	}
	if analysis.HashRun(big) != analysis.HashRun(big) {
		t.Error("digest depends on map iteration order")
	}
	base := analysis.HashRuns([]analysis.BucketStats{a})
	mut := analysis.BucketStats{1: {Events: 10, Misses: 3}, 2: {Events: 5, Misses: 1}}
	if analysis.HashRuns([]analysis.BucketStats{mut}) == base {
		t.Error("hash missed a changed miss count")
	}
	// The same triples split differently across runs must hash differently.
	one := []analysis.BucketStats{{1: {Events: 10, Misses: 2}, 2: {Events: 5, Misses: 1}}}
	two := []analysis.BucketStats{{1: {Events: 10, Misses: 2}}, {2: {Events: 5, Misses: 1}}}
	if analysis.HashRuns(one) == analysis.HashRuns(two) {
		t.Error("hash missed a run boundary")
	}
	c := analysis.BucketStats{7: {Events: 3, Misses: 3}}
	if analysis.HashRuns([]analysis.BucketStats{a, c}) == analysis.HashRuns([]analysis.BucketStats{c, a}) {
		t.Error("hash missed run order")
	}
	empty := analysis.BucketStats{}
	if analysis.HashRuns([]analysis.BucketStats{a}) == analysis.HashRuns([]analysis.BucketStats{a, empty}) {
		t.Error("hash missed a trailing empty run")
	}
	if analysis.HashRuns([]analysis.BucketStats{empty, a}) == analysis.HashRuns([]analysis.BucketStats{a, empty}) {
		t.Error("hash missed the position of an empty run")
	}
	if analysis.HashRuns(nil) == analysis.HashRuns([]analysis.BucketStats{empty}) {
		t.Error("hash missed an empty run in an otherwise empty set")
	}
	runs := []analysis.BucketStats{a, empty, c, big}
	digests := make([][sha256.Size]byte, len(runs))
	for i, bs := range runs {
		digests[i] = analysis.HashRun(bs)
	}
	if analysis.CombineRunDigests(digests) != analysis.HashRuns(runs) {
		t.Error("combined per-run digests differ from the content hash")
	}
}

// deepCopy clones tallies into fresh maps and tally blocks.
func deepCopy(runs []analysis.BucketStats) []analysis.BucketStats {
	out := make([]analysis.BucketStats, len(runs))
	for i, bs := range runs {
		out[i] = make(analysis.BucketStats, len(bs))
		for k, t := range bs {
			tc := *t
			out[i][k] = &tc
		}
	}
	return out
}

// TestCurveKeyFollowsContent: a curve set over a resident pass (keyed from
// its stored digests) and one over a deep copy of the same tallies (hashed
// from the maps) must produce the same key, for whole passes, picked
// subsets and single runs — keys follow content, never map identity.
func TestCurveKeyFollowsContent(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	s := NewSession(Config{Branches: 3000, NoCurveArtifact: true})
	p, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
	if err != nil {
		t.Fatal(err)
	}
	copied := deepCopy(p.Stats())
	if got, want := s.Pooled(p.Tallies()).contentHash(), s.Pooled(DerivedRuns(copied...)).contentHash(); got != want {
		t.Errorf("pass key %s != deep-copy key %s", got, want)
	}
	if got, want := s.Pooled(p.Pick(3, 1)).contentHash(), s.Pooled(DerivedRuns(copied[3], copied[1])).contentHash(); got != want {
		t.Errorf("picked-runs key %s != deep-copy key %s", got, want)
	}
	if got, want := s.SingleRun(p.Pick(2)).contentHash(), s.SingleRun(DerivedRuns(copied[2])).contentHash(); got != want {
		t.Errorf("single-run key %s != deep-copy key %s", got, want)
	}
	if s.Pooled(p.Pick(1, 3)).contentHash() == s.Pooled(p.Pick(3, 1)).contentHash() {
		t.Error("picked runs in a different order share a key")
	}
}

// TestCurveTierCounters pins what the curve tier's counters mean, at one
// worker and at every CPU: a claim served from a finished curve is a hit,
// a claim parked on a curve still being built is coalesced, and neither
// is ever counted as the other.
func TestCurveTierCounters(t *testing.T) {
	defer sim.SetParallelism(0)
	for _, workers := range []int{1, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sim.SetParallelism(workers)
			testCurveTierCounters(t)
		})
	}
}

func testCurveTierCounters(t *testing.T) {
	CurveTier.Reset()
	defer CurveTier.Reset()
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	want := func(stage string, hits, misses, coalesced uint64) {
		t.Helper()
		st := CurveTier.Stats()
		if st.Hits != hits || st.Misses != misses || st.Coalesced != coalesced {
			t.Fatalf("%s: curve tier hits=%d misses=%d coalesced=%d, want %d/%d/%d",
				stage, st.Hits, st.Misses, st.Coalesced, hits, misses, coalesced)
		}
	}

	// fig5 and fig8, run concurrently, claim eight curves over seven keys:
	// fig5's PCxorBHR curve is fig8's ideal curve. Whichever claims second
	// shares the other's build — a hit or a coalesced wait, never a miss.
	s := NewSession(Config{Branches: 3000})
	var wg sync.WaitGroup
	for _, id := range []string{"fig5", "fig8"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(s); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := CurveTier.Stats()
	if st.Misses != 7 || st.Hits+st.Coalesced != 1 {
		t.Fatalf("concurrent cold run: hits=%d coalesced=%d misses=%d, want 7 misses and one shared claim",
			st.Hits, st.Coalesced, st.Misses)
	}

	// Fresh curve sets over the resident passes hit every finished curve.
	CurveTier.Reset()
	p, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Pooled(p.Tallies()).Curve()
	want("cold", 0, 1, 0)
	if warm := s.Pooled(p.Tallies()).Curve(); !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm curve differs from cold")
	}
	want("warm", 1, 1, 0)

	// Waiters parked on an in-flight build are coalesced, not hits.
	ones := func(b uint64) uint64 { return uint64(bits.OnesCount64(b)) }
	cs := s.Pooled(p.Tallies())
	built := cs.build(ones)
	owned, release := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() { // the test owns the build, uncounted, until the waiters park
		defer wg.Done()
		CurveTier.GetUncounted(curveArtifactKey(cs.contentHash(), "pooled", "1cnt"), func() (any, uint64, error) {
			close(owned)
			<-release
			return built, uint64(len(built)) * curvePointWire, nil
		})
	}()
	<-owned
	const waiters = 3
	got := make([]analysis.Curve, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = s.Pooled(p.Tallies()).Merged("1cnt", ones)
		}()
	}
	for CurveTier.Stats().Coalesced < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	want("in flight", 1, 1, waiters)
	for g := range got {
		if !reflect.DeepEqual(got[g], built) {
			t.Fatalf("waiter %d got a different curve", g)
		}
	}
}
