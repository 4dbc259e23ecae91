package memo

// Tier is one memoized engine cache tier: a ByteLRU plus the Counters every
// tier reports. Get runs the whole claim sequence — claim, count, wait or
// build, publish — so a tier's owner supplies only the build. The zero
// value is an empty, unbounded tier.
type Tier struct {
	lru    ByteLRU
	counts Counters
}

// Stats is one tier's observability snapshot: its claim counts, the
// entries its bound evicted, and the payload bytes it holds.
type Stats struct {
	Hits, Misses, Coalesced  uint64
	Evictions, ResidentBytes uint64
}

// Get returns key's value, counting the claim once. On a miss it runs
// build, which returns the value, its payload bytes, and any error, and
// publishes the result; concurrent claimants of the key wait on that one
// build and share it. A failed build reaches the claimants already waiting
// on it but is not cached: the next Get of the key builds again.
func (t *Tier) Get(key any, build func() (any, uint64, error)) (any, error) {
	e, o := t.lru.Claim(key)
	t.counts.Count(o)
	return t.await(e, o, build)
}

// GetUncounted is Get without counting the claim, for entries that share
// the tier's byte budget but are not the artifact its counters describe
// (the annotated tier's flat views).
func (t *Tier) GetUncounted(key any, build func() (any, uint64, error)) (any, error) {
	e, o := t.lru.Claim(key)
	return t.await(e, o, build)
}

func (t *Tier) await(e *Entry, o Outcome, build func() (any, uint64, error)) (any, error) {
	if o != Miss {
		<-e.Done
		return e.Val, e.Err
	}
	var bytes uint64
	e.Val, bytes, e.Err = build()
	t.lru.Finish(e, bytes)
	return e.Val, e.Err
}

// SetBound bounds the tier's resident payload bytes; 0 removes the bound.
func (t *Tier) SetBound(bytes uint64) { t.lru.SetBound(bytes) }

// Reset drops every entry and zeroes the counters, keeping the bound.
// Intended for tests and batch boundaries.
func (t *Tier) Reset() {
	t.lru.Reset()
	t.counts.Reset()
}

// Release drops every entry but keeps the claim counters: memory relief
// for a long-lived process, not a new counting epoch.
func (t *Tier) Release() { t.lru.Reset() }

// Stats returns the tier's counts and usage so far.
func (t *Tier) Stats() Stats {
	h, m, co := t.counts.Load()
	r, ev := t.lru.Usage()
	return Stats{Hits: h, Misses: m, Coalesced: co, Evictions: ev, ResidentBytes: r}
}
