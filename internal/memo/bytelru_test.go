package memo

import (
	"errors"
	"testing"
)

// TestByteLRUErroredEntryDropped is the regression test for the negative-
// caching bug: an owner whose build fails must not leave the errored entry
// in the map, or every later claim of that key replays the stale error for
// the life of the process. Waiters parked on the failing build still see
// the error; the next claim owns a fresh build.
func TestByteLRUErroredEntryDropped(t *testing.T) {
	var c ByteLRU
	boom := errors.New("transient build failure")

	e, o := c.Claim("k")
	if o != Miss {
		t.Fatal("first claim not owner")
	}
	waiter, wo := c.Claim("k") // parked before the failure publishes
	if wo != Coalesced {
		t.Fatalf("second claim on an in-flight build: outcome %d, want Coalesced", wo)
	}
	e.Err = boom
	c.Finish(e, 0)
	<-waiter.Done
	if waiter.Err != boom {
		t.Fatalf("parked waiter saw err=%v, want the owner's failure", waiter.Err)
	}

	e2, o2 := c.Claim("k")
	if o2 != Miss {
		t.Fatalf("claim after failed build not owner: stale err=%v negatively cached", e2.Err)
	}
	e2.Val = "rebuilt"
	c.Finish(e2, 8)

	e3, o3 := c.Claim("k")
	if o3 != Hit || e3.Err != nil || e3.Val != "rebuilt" {
		t.Fatalf("rebuild not cached: outcome=%d err=%v val=%v", o3, e3.Err, e3.Val)
	}
	if resident, _ := c.Usage(); resident != 8 {
		t.Fatalf("resident = %d, want 8 (failed build must not count)", resident)
	}
}

// TestByteLRUZeroByteEntryEvictable is the regression test for the
// in-flight/empty ambiguity: a successfully built zero-byte payload (an
// empty stream is a legitimate artifact) must be evictable like any other
// completed entry, not mistaken for an in-flight build and pinned forever.
func TestByteLRUZeroByteEntryEvictable(t *testing.T) {
	var c ByteLRU
	c.SetBound(1)

	empty, o := c.Claim("empty")
	if o != Miss {
		t.Fatal("claim not owner")
	}
	empty.Val = []byte{}
	c.Finish(empty, 0) // built, legitimately zero bytes

	big, o := c.Claim("big")
	if o != Miss {
		t.Fatal("claim not owner")
	}
	big.Val = "bb"
	c.Finish(big, 2) // resident 2 > bound 1: eviction runs LRU-first

	if _, o := c.Claim("empty"); o != Miss {
		t.Fatal("zero-byte built entry survived eviction: mistaken for in-flight")
	}
	if _, evictions := c.Usage(); evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (empty then big)", evictions)
	}
}

// TestByteLRUInFlightNeverEvicted pins the guard the zero-byte fix must not
// break: an entry whose build is still running is skipped by eviction even
// when the cache is over budget.
func TestByteLRUInFlightNeverEvicted(t *testing.T) {
	var c ByteLRU
	c.SetBound(1)

	inflight, o := c.Claim("inflight")
	if o != Miss {
		t.Fatal("claim not owner")
	}

	done, o := c.Claim("done")
	if o != Miss {
		t.Fatal("claim not owner")
	}
	done.Val = "dd"
	c.Finish(done, 2) // over budget; only "done" is evictable

	if _, o := c.Claim("inflight"); o == Miss {
		t.Fatal("in-flight entry evicted out from under its waiters")
	}
	inflight.Val = "v"
	c.Finish(inflight, 1)
}

// TestByteLRUClaimOutcomes: a claim on a finished entry is a hit and a
// claim on an in-flight one is a coalesced wait, and Counters keeps the
// two apart — a wait on someone else's build is never reported as a hit.
func TestByteLRUClaimOutcomes(t *testing.T) {
	var c ByteLRU
	var n Counters
	claim := func(key string) (*Entry, Outcome) {
		e, o := c.Claim(key)
		n.Count(o)
		return e, o
	}
	e, o := claim("k")
	if o != Miss {
		t.Fatalf("first claim: outcome %d, want Miss", o)
	}
	for i := 0; i < 3; i++ {
		if _, o := claim("k"); o != Coalesced {
			t.Fatalf("claim during the build: outcome %d, want Coalesced", o)
		}
	}
	e.Val = "v"
	c.Finish(e, 1)
	for i := 0; i < 2; i++ {
		if _, o := claim("k"); o != Hit {
			t.Fatalf("claim after the build: outcome %d, want Hit", o)
		}
	}
	if h, m, co := n.Load(); h != 2 || m != 1 || co != 3 {
		t.Fatalf("counters hits=%d misses=%d coalesced=%d, want 2/1/3", h, m, co)
	}
	n.Reset()
	if h, m, co := n.Load(); h+m+co != 0 {
		t.Fatalf("counters after Reset: %d/%d/%d", h, m, co)
	}
}
