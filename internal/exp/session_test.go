package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// TestSessionConcurrentClaimants exercises the pass cache's claim-then-run
// path under contention: many goroutines request the same (predictor,
// mechanism) pass simultaneously; exactly one must simulate it (counted via
// the constructors) while the rest block on the entry and share the result.
// Run under -race in CI.
func TestSessionConcurrentClaimants(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	var predBuilds, mechBuilds atomic.Int64
	pred := PredSpec{Key: "gshare-64K", New: func() predictor.Predictor {
		predBuilds.Add(1)
		return predictor.Gshare64K()
	}}
	mech := MechSpec{Key: "resetting", New: func() core.Mechanism {
		mechBuilds.Add(1)
		return core.PaperResetting()
	}}

	s := NewSession(Config{Branches: 3456})
	const claimants = 8
	results := make([]Pass, claimants)
	errs := make([]error, claimants)
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = s.SuiteOne(pred, mech)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("claimant %d: %v", g, err)
		}
	}
	for g := 1; g < claimants; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("claimant %d got a different result", g)
		}
	}

	// One pass over the suite, regardless of how many claimants raced: the
	// mechanism is constructed once (its instance is Reset and reused
	// across benchmarks), the predictor once per benchmark (one annotation
	// walk each).
	n := int64(len(workload.Suite()))
	if got := mechBuilds.Load(); got != 1 {
		t.Errorf("mechanism constructor ran %d times, want 1 (reset-and-reuse across benchmarks)", got)
	}
	if got := predBuilds.Load(); got != n {
		t.Errorf("predictor constructor ran %d times, want %d (one annotate per benchmark)", got, n)
	}
	// Every other claimant shares the one pass: served from the finished
	// entry (a hit) or parked on it while in flight (coalesced).
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("pass-cache misses = %d, want exactly 1", st.Misses)
	}
	if st.Hits+st.Coalesced != claimants-1 {
		t.Errorf("pass-cache hits+coalesced = %d+%d, want %d", st.Hits, st.Coalesced, claimants-1)
	}
}

// TestSessionCrossRequestSingleFlight exercises the process-lifetime form
// of the pass cache: claimants arrive as distinct "requests" — separate
// goroutines fetching the session from a shared SessionPool, the resident
// daemon's shape — rather than racing inside one report run. The contract
// is unchanged: one simulation per (predictor, mechanism) key, every
// request sharing the result, and pool-wide stats counting each request's
// claim. Run under -race in CI.
func TestSessionCrossRequestSingleFlight(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	var mechBuilds atomic.Int64
	pred := Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	mech := MechSpec{Key: "resetting", New: func() core.Mechanism {
		mechBuilds.Add(1)
		return core.PaperResetting()
	}}

	pool := NewSessionPool(4, 0)
	cfg := Config{Branches: 3456}
	const requests = 6
	results := make([]Pass, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for g := 0; g < requests; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each request resolves its own session from the pool, as the
			// daemon's report handler does.
			s := pool.Get(cfg)
			results[g], errs[g] = s.SuiteOne(pred, mech)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", g, err)
		}
	}
	for g := 1; g < requests; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("request %d got a different result", g)
		}
	}
	if got := mechBuilds.Load(); got != 1 {
		t.Errorf("mechanism constructor ran %d times across requests, want 1", got)
	}
	if pool.Len() != 1 {
		t.Errorf("pool holds %d sessions for one config, want 1", pool.Len())
	}
	st, _ := pool.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != requests-1 {
		t.Errorf("pool stats = %d hits + %d coalesced, %d misses; want %d, 1", st.Hits, st.Coalesced, st.Misses, requests-1)
	}

	// A distinct config is a distinct session — results may legitimately
	// differ, so passes must not be shared across configs.
	other := pool.Get(Config{Branches: 1234})
	if other == pool.Get(cfg) {
		t.Fatal("distinct configs shared a session")
	}
}

// TestSessionErroredClaimantMidFlight pins the resident-process error
// contract: claimants parked on a pass whose owner fails all observe the
// error, but the failure is not negatively cached — the next claimant
// re-owns the key and a clean run succeeds. The owner's failure is staged
// through the pass cache directly (the engine has no injectable failure
// path), which is exactly the layer the contract lives in.
func TestSessionErroredClaimantMidFlight(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	pred := Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	mech := Mech(func() core.Mechanism { return core.PaperResetting() })
	s := NewSession(Config{Branches: 3456})

	// Become the mid-flight owner of the pass.
	key := passKey(pred.Key + "\x1f" + mech.Key)
	e, o := s.passes.Claim(key)
	if o != memo.Miss {
		t.Fatal("test could not claim the fresh pass")
	}

	// Waiters arrive while the owner is in flight.
	const waiters = 4
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[g] = s.SuiteOne(pred, mech)
		}()
	}
	// Every waiter registers a coalesced claim when it parks on the
	// in-flight entry; finish only once all of them are parked, so none
	// arrives after the errored entry is dropped and accidentally owns a
	// clean rebuild.
	for s.Stats().Coalesced < waiters {
		runtime.Gosched()
	}
	if h := s.Stats().Hits; h != 0 {
		t.Fatalf("waiters on an in-flight pass counted as %d hits", h)
	}
	// The owner errors mid-flight.
	wantErr := fmt.Errorf("injected mid-flight failure")
	e.Err = wantErr
	s.passes.Finish(e, 0)
	wg.Wait()
	for g, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "injected mid-flight failure") {
			t.Fatalf("waiter %d: error = %v, want the owner's failure", g, err)
		}
	}

	// The error must not be pinned: a later claimant re-owns the key and
	// the clean run succeeds.
	res, err := s.SuiteOne(pred, mech)
	if err != nil {
		t.Fatalf("retry after mid-flight failure: %v", err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("retry produced an empty result")
	}
}

// TestSessionPassEviction pins the memory-pressure hook: under a byte
// bound the pass cache evicts completed passes LRU-first, and an evicted
// pass is re-simulated (a miss) on the next claim rather than served.
func TestSessionPassEviction(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	pred := Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	mech := Mech(func() core.Mechanism { return core.PaperResetting() })
	s := NewSession(Config{Branches: 3456})
	s.SetPassBound(1) // every completed pass exceeds the bound

	if _, err := s.SuiteOne(pred, mech); err != nil {
		t.Fatal(err)
	}
	if resident, evictions := s.PassUsage(); evictions == 0 || resident > 1 {
		t.Fatalf("bound ignored: resident=%d evictions=%d", resident, evictions)
	}
	if _, err := s.SuiteOne(pred, mech); err != nil {
		t.Fatal(err)
	}
	if misses := s.Stats().Misses; misses != 2 {
		t.Fatalf("evicted pass served from cache: misses=%d, want 2", misses)
	}
}

// TestSessionPoolEviction pins the pool bound: beyond max sessions the
// least-recently-used config is retired, its stats fold into the pool
// totals, and Trim releases everything.
func TestSessionPoolEviction(t *testing.T) {
	pool := NewSessionPool(2, 0)
	a := pool.Get(Config{Branches: 100})
	_ = pool.Get(Config{Branches: 200})
	_ = pool.Get(Config{Branches: 300}) // evicts Branches:100
	if pool.Len() != 2 {
		t.Fatalf("pool holds %d sessions, want 2", pool.Len())
	}
	if _, evictions := pool.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if pool.Get(Config{Branches: 100}) == a {
		t.Fatal("evicted session resurrected instead of rebuilt")
	}
	pool.Trim()
	if pool.Len() != 0 {
		t.Fatalf("Trim left %d sessions", pool.Len())
	}
}
