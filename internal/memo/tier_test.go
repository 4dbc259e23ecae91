package memo

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestTierGetOutcomes: the first Get of a key builds (a miss), Gets while
// that build is in flight wait on it (coalesced) and share its value, and
// Gets after it finished are hits. GetUncounted shares entries but never
// moves the counters.
func TestTierGetOutcomes(t *testing.T) {
	var tier Tier
	builds := 0
	owned, release := make(chan struct{}), make(chan struct{})
	build := func() (any, uint64, error) {
		builds++
		close(owned)
		<-release
		return "v", 1, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tier.Get("k", build)
	}()
	<-owned
	const waiters = 3
	got := make([]any, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = tier.Get("k", build)
		}()
	}
	for tier.Stats().Coalesced < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for g, v := range got {
		if v != "v" {
			t.Fatalf("waiter %d got %v, want the owner's value", g, v)
		}
	}
	for i := 0; i < 2; i++ {
		if v, err := tier.Get("k", build); v != "v" || err != nil {
			t.Fatalf("hit: %v, %v", v, err)
		}
	}
	if v, _ := tier.GetUncounted("k", build); v != "v" {
		t.Fatalf("uncounted claim got %v", v)
	}
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}
	want := Stats{Hits: 2, Misses: 1, Coalesced: waiters, ResidentBytes: 1}
	if st := tier.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	tier.Reset()
	if st := tier.Stats(); st != (Stats{}) {
		t.Fatalf("stats after Reset: %+v", st)
	}
}

// TestTierErroredBuildNotCached: a failed build returns its error but
// leaves nothing behind, so the next Get of the key builds again.
func TestTierErroredBuildNotCached(t *testing.T) {
	var tier Tier
	boom := errors.New("transient build failure")
	if _, err := tier.Get("k", func() (any, uint64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("failed build returned %v, want its error", err)
	}
	v, err := tier.Get("k", func() (any, uint64, error) { return "rebuilt", 7, nil })
	if err != nil || v != "rebuilt" {
		t.Fatalf("Get after a failed build: %v, %v; want a fresh build", v, err)
	}
	if st := tier.Stats(); st.Misses != 2 || st.Hits != 0 || st.ResidentBytes != 7 {
		t.Fatalf("stats %+v, want two misses and only the rebuild resident", st)
	}
}

// TestTierBoundEvicts: a bound evicts completed entries least recently
// used first, and the tier's stats count each eviction. Release drops the
// entries but keeps the claim counts.
func TestTierBoundEvicts(t *testing.T) {
	var tier Tier
	tier.SetBound(2)
	for _, k := range []string{"a", "b", "c"} {
		tier.Get(k, func() (any, uint64, error) { return k, 1, nil })
	}
	if st := tier.Stats(); st.Evictions != 1 || st.ResidentBytes != 2 {
		t.Fatalf("stats %+v, want one eviction and 2 bytes resident", st)
	}
	rebuilt := false
	tier.Get("a", func() (any, uint64, error) { rebuilt = true; return "a", 1, nil })
	if !rebuilt {
		t.Fatal("the least recently used entry survived the bound")
	}
	tier.Release()
	if st := tier.Stats(); st.Misses != 4 || st.ResidentBytes != 0 {
		t.Fatalf("stats after Release %+v, want the 4 misses kept and nothing resident", st)
	}
}
