package workload

import (
	"fmt"

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

// TraceTier is the materialized-trace memo. It is never bounded: buffers
// stay cached for the life of the process (about 4-5 bytes per branch;
// ~5 MB for a default one-million-branch benchmark). Each Materialize call
// counts once: a miss generates, a hit finds the buffer built, and a
// coalesced call waits on an in-flight generation.
var TraceTier memo.Tier

// Materialize returns the shared replay buffer for spec's finite trace of n
// records (DefaultBranches when n == 0), generating it on first use. It is
// safe for concurrent use: callers racing on the same key block on a single
// generation and share its result, including any error; the first caller
// generates. A failed generation is not cached, so the next call retries.
//
// Callers needing a one-shot materialization without retention should use
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
	v, err := TraceTier.Get(memoKey{spec: spec, n: n}, func() (any, uint64, error) {
		buf, err := generate(spec, n)
		if err != nil {
			return nil, 0, err
		}
		return buf, buf.Footprint(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.ReplayBuffer), nil
}

// generate builds spec's n-record replay buffer, from the artifact store
// when it holds a valid copy, otherwise from the generator (publishing the
// result back to the store).
func generate(spec Spec, n uint64) (*trace.ReplayBuffer, error) {
	diskKey := replayArtifactKey(spec, n)
	if buf, ok := artifact.Load(artifact.KindReplayBuffer, diskKey, trace.UnmarshalReplayBuffer,
		func(buf *trace.ReplayBuffer) bool { return uint64(buf.Len()) == n }); ok {
		return buf, nil
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		return nil, err
	}
	buf, err := trace.Materialize(src, 0)
	if err != nil {
		return nil, err
	}
	artifact.Save(artifact.KindReplayBuffer, diskKey, func() []byte {
		payload, _ := buf.MarshalBinary() // never fails
		return payload
	})
	return buf, nil
}

// replayArtifactKey is the canonical disk-store key for one materialized
// trace: the payload codec version, the full spec identity, and the
// resolved branch budget.
func replayArtifactKey(spec Spec, n uint64) string {
	return fmt.Sprintf("replay|v%d|%s|n=%d", artifact.FormatVersion, spec.CacheKey(), n)
}
