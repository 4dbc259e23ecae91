package workload

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"branchconf/internal/trace"
)

func TestMaterializeMatchesFiniteSource(t *testing.T) {
	defer TraceTier.Reset()
	spec, err := ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	buf, err := Materialize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("materialized %d records, want %d", buf.Len(), n)
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Collect(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Collect(buf.Source(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: replay %+v, direct %+v", i, got[i], want[i])
		}
	}
}

func TestMaterializeDefaultBudget(t *testing.T) {
	// n == 0 resolves to the spec's DefaultBranches, so the zero budget
	// shares a cache entry with the explicit default.
	defer TraceTier.Reset()
	spec, err := ByName("jpeg_play")
	if err != nil {
		t.Fatal(err)
	}
	spec.DefaultBranches = 5000 // keep the test fast
	a, err := Materialize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 5000 {
		t.Fatalf("default budget materialized %d records", a.Len())
	}
	b, err := Materialize(spec, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("zero and explicit default budgets did not share a cache entry")
	}
}

// TestMaterializeConcurrent hammers one key from many goroutines: exactly
// one generation must happen, every caller must see the same buffer, and
// every other call counts once, as a hit or a coalesced wait.
// Run under -race this also checks the memo's synchronisation.
func TestMaterializeConcurrent(t *testing.T) {
	TraceTier.Reset()
	defer TraceTier.Reset()
	spec, err := ByName("gs")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	bufs := make([]*trace.ReplayBuffer, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, err := Materialize(spec, 10000)
			if err != nil {
				t.Error(err)
				return
			}
			bufs[i] = buf
		}()
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if bufs[i] != bufs[0] {
			t.Fatal("concurrent callers saw different buffers")
		}
	}
	// Every other caller either found the buffer built (a hit) or waited
	// on the in-flight generation (coalesced); which, depends on timing.
	rep := TraceTier.Stats()
	if rep.Misses != 1 {
		t.Fatalf("misses = %d, want exactly one generation", rep.Misses)
	}
	if rep.Hits+rep.Coalesced != workers-1 {
		t.Fatalf("hits %d + coalesced %d, want %d", rep.Hits, rep.Coalesced, workers-1)
	}
	// Once the generation has finished, a call is a plain hit.
	if _, err := Materialize(spec, 10000); err != nil {
		t.Fatal(err)
	}
	if again := TraceTier.Stats(); again.Hits != rep.Hits+1 || again.Coalesced != rep.Coalesced {
		t.Fatalf("post-generation call counted as %+v after %+v, want one more hit", again, rep)
	}
	if TraceTier.Stats().ResidentBytes == 0 {
		t.Fatal("footprint not accounted")
	}
}

func TestMaterializeDistinctKeys(t *testing.T) {
	TraceTier.Reset()
	defer TraceTier.Reset()
	spec, err := ByName("nroff")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Materialize(spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed++
	b, err := Materialize(other, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different seeds shared a cache entry")
	}
	if rep := TraceTier.Stats(); rep.Misses != 2 {
		t.Fatalf("misses = %d, want 2", rep.Misses)
	}
}

// TestMaterializeRetriesFailedGeneration is the regression test for the
// trace memo's negative caching: a generation that fails (here, the trace
// file is missing) must not stay in the memo, or the failure is replayed
// for the life of the process after the file is back.
func TestMaterializeRetriesFailedGeneration(t *testing.T) {
	TraceTier.Reset()
	defer TraceTier.Reset()
	dir := t.TempDir()
	path := writeTestTrace(t, dir, 2000)
	spec, err := TraceSpec("groff-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(dir, "moved")
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(spec, 0); err == nil {
		t.Fatal("materialized a trace whose file is gone")
	}
	if err := os.Rename(moved, path); err != nil {
		t.Fatal(err)
	}
	buf, err := Materialize(spec, 0)
	if err != nil {
		t.Fatalf("retry after the file came back: %v (failure cached)", err)
	}
	if buf.Len() != 2000 {
		t.Fatalf("retry materialized %d records, want 2000", buf.Len())
	}
	if st := TraceTier.Stats(); st.Misses != 2 || st.Hits+st.Coalesced != 0 {
		t.Fatalf("trace tier %+v, want two misses: the failure and the retry", st)
	}
}
