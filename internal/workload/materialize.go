package workload

import (
	"fmt"
	"sync"

	"branchconf/internal/artifact"
	"branchconf/internal/memo"
	"branchconf/internal/trace"
)

// Process-wide materialized-trace cache. Every experiment over a given
// (benchmark, seed, branch budget) consumes the identical record stream, so
// the walk is generated once and replayed from a compact ReplayBuffer
// thereafter. Entries are keyed by the full Spec (which embeds the
// benchmark name and seed) plus the resolved budget; a Spec is a pure value
// type, so equal keys guarantee byte-identical traces.

type memoKey struct {
	spec Spec
	n    uint64
}

type memoEntry struct {
	done chan struct{} // closed once buf and err are final
	buf  *trace.ReplayBuffer
	err  error
}

var traceMemo struct {
	mu sync.Mutex
	m  map[memoKey]*memoEntry
}

// memoCounts counts each Materialize call once: a miss generates, a hit
// finds the buffer built, and a coalesced call waits on an in-flight
// generation.
var memoCounts memo.Counters

// Materialize returns the shared replay buffer for spec's finite trace of n
// records (DefaultBranches when n == 0), generating it on first use. It is
// safe for concurrent use: callers racing on the same key block on a single
// generation and share its result, including any error; the first caller
// generates.
//
// Buffers stay cached for the life of the process (about 4-5 bytes per
// branch; ~5 MB for a default one-million-branch benchmark). Callers
// needing a one-shot materialization without retention should use
// trace.Materialize directly.
func Materialize(spec Spec, n uint64) (*trace.ReplayBuffer, error) {
	if n == 0 {
		n = spec.DefaultBranches
	}
	if spec.IsTrace() && n > spec.TraceCount {
		// The file holds what it holds; resolving the budget here keeps
		// the memo key, the artifact key, and the buffer's record count
		// agreeing with what the source can actually emit.
		n = spec.TraceCount
	}
	key := memoKey{spec: spec, n: n}
	traceMemo.mu.Lock()
	e := traceMemo.m[key]
	if e != nil {
		o := memo.Coalesced
		select {
		case <-e.done:
			o = memo.Hit
		default:
		}
		memoCounts.Count(o)
		traceMemo.mu.Unlock()
		<-e.done
		return e.buf, e.err
	}
	if traceMemo.m == nil {
		traceMemo.m = make(map[memoKey]*memoEntry)
	}
	e = &memoEntry{done: make(chan struct{})}
	traceMemo.m[key] = e
	memoCounts.Count(memo.Miss)
	traceMemo.mu.Unlock()
	defer close(e.done)
	e.buf, e.err = generate(spec, n)
	return e.buf, e.err
}

// generate builds spec's n-record replay buffer, from the artifact store
// when it holds a valid copy, otherwise from the generator (publishing the
// result back to the store).
func generate(spec Spec, n uint64) (*trace.ReplayBuffer, error) {
	diskKey := replayArtifactKey(spec, n)
	if s := artifact.Default(); s != nil {
		if payload, ok := s.Get(artifact.KindReplayBuffer, diskKey); ok {
			buf, err := trace.UnmarshalReplayBuffer(payload)
			if err == nil && uint64(buf.Len()) == n {
				return buf, nil
			}
			// The record passed checksum verification but its payload
			// does not decode to this trace; fail closed and regenerate.
			s.Drop(artifact.KindReplayBuffer, diskKey)
		}
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		return nil, err
	}
	buf, err := trace.Materialize(src, 0)
	if err != nil {
		return nil, err
	}
	if s := artifact.Default(); s != nil {
		if payload, perr := buf.MarshalBinary(); perr == nil {
			// Best effort: a full disk or unwritable store only costs the
			// next process a cold start. The store owns retry and
			// degradation, so the error is ignored here.
			_ = s.Put(artifact.KindReplayBuffer, diskKey, payload)
		}
	}
	return buf, nil
}

// replayArtifactKey is the canonical disk-store key for one materialized
// trace: the payload codec version, the full spec identity, and the
// resolved branch budget.
func replayArtifactKey(spec Spec, n uint64) string {
	return fmt.Sprintf("replay|v%d|%s|n=%d", artifact.FormatVersion, spec.CacheKey(), n)
}

// MaterializeReport returns the memo's counters in the uniform per-tier
// quad every engine cache reports (see artifact.TierStats). The memo never
// evicts — buffers live for the process — so evictions are always zero.
func MaterializeReport() artifact.TierStats {
	h, m, co := memoCounts.Load()
	return artifact.TierStats{Hits: h, Misses: m, Coalesced: co, ResidentBytes: MaterializeFootprint()}
}

// MaterializeFootprint returns the total payload bytes held by cached
// replay buffers.
func MaterializeFootprint() uint64 {
	traceMemo.mu.Lock()
	defer traceMemo.mu.Unlock()
	var total uint64
	for _, e := range traceMemo.m {
		select {
		case <-e.done:
		default:
			continue // still generating
		}
		if e.buf != nil {
			total += e.buf.Footprint()
		}
	}
	return total
}

// ResetMaterializeCache drops every cached buffer and zeroes the counters.
// Intended for tests and long-lived processes that want to bound memory
// between experiment batches.
func ResetMaterializeCache() {
	traceMemo.mu.Lock()
	traceMemo.m = nil
	traceMemo.mu.Unlock()
	memoCounts.Reset()
}
