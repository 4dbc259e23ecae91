package exp

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/pprof"

	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/lane"
	"branchconf/internal/memo"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// The model tier: the cycle-driven application models (internal/pipeline's
// gated fetch and dual-path machines, internal/apps' dual-path, SMT, hybrid,
// reverser and gating studies) are pure functions of the engine's lanes —
// the flat view's gaps, the annotated stream's mispredict bits, and the
// bucket lane of the estimator's table geometry (internal/lane) — plus a
// small configuration, and their outputs are flat vectors of event counts.
// A model build fetches its lanes through the same single-flight annotated
// and bucket-stream tiers the suite passes use (modelLanes), so no model
// walks a predictor the engine has already walked; the reverser needs not
// even the lanes, only its pass's bucket histogram.
//
// On a warm run the models are the largest remaining cost — no stage-0..2
// artifact can skip a cycle model — so their count vectors memoize and
// persist exactly like curves: a process-wide memo.Tier in front of a
// KindModelStats disk artifact, keyed by everything the counts are a pure
// function of. The key names the workload, budget, predictor, estimator and
// machine, not the lanes' content: a key over lane hashes would force every
// warm run to build lanes just to look a vector up. Every derived figure
// (IPC, waste, coverage, efficiency) is recomputed from the counts, so a
// served vector renders byte-identically to a live model run.

// modelVersion versions the cycle models' behaviour in every model-tier
// key. Bump it whenever any model in internal/pipeline or internal/apps
// changes semantics — the key carries no content hash of the model code, so
// this constant is the only invalidation handle.
const modelVersion = 1

// ModelTier is the process-wide model-stats memo. Entries are a few
// hundred bytes each; the bound (SetCacheBound) exists for symmetry with
// the other tiers.
var ModelTier memo.Tier

// modelKey builds the canonical model-tier key: model version, model name,
// workload spec, branch budget, and the model's full parameterisation.
// params must cover every input the counts depend on — predictor geometry,
// estimator config, machine shape — or two distinct runs would alias.
func modelKey(model, spec string, branches uint64, params string) string {
	return fmt.Sprintf("model|v%d|%s|spec=%s|n=%d|%s", modelVersion, model, spec, branches, params)
}

// modelCounts serves one cycle-model invocation's count vector through the
// tier: process memo first, disk artifact second, live model run last.
// Concurrent claimants of one key share a single run, which CPU profiles
// see under the calling experiment's label with stage=model. want is the
// vector length the caller's unpacker expects; a disk record of any other
// length is dropped and re-run — the belt under the modelVersion
// suspenders, so a model whose count set changed without a version bump
// costs a rebuild, never a panic in an unpacker.
func (s *Session) modelCounts(expID, key string, want int, build func(ctx context.Context) ([]uint64, error)) ([]uint64, error) {
	run := func() (counts []uint64, err error) {
		pprof.Do(context.Background(), pprof.Labels("experiment", expID, "stage", "model"), func(ctx context.Context) {
			counts, err = build(ctx)
		})
		return counts, err
	}
	if s.cfg.NoModelArtifact {
		return run()
	}
	v, err := ModelTier.Get(key, func() (any, uint64, error) {
		var counts []uint64
		var ok bool
		pprof.Do(context.Background(), pprof.Labels("stage", "model-load"), func(context.Context) {
			counts, ok = artifact.Load(artifact.KindModelStats, key, unmarshalCounts,
				func(counts []uint64) bool { return len(counts) == want })
		})
		if !ok {
			var err error
			if counts, err = run(); err != nil {
				return nil, 0, err
			}
			artifact.Save(artifact.KindModelStats, key, func() []byte { return marshalCounts(counts) })
		}
		return counts, uint64(len(counts)) * 8, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]uint64), nil
}

// marshalCounts frames a count vector for the artifact tier.
func marshalCounts(counts []uint64) []byte {
	out := make([]byte, 0, 8+len(counts)*8)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(counts)))
	for _, c := range counts {
		out = binary.LittleEndian.AppendUint64(out, c)
	}
	return out
}

// unmarshalCounts decodes a count vector, validating the framing; any
// structural mismatch is corruption, never a short vector.
func unmarshalCounts(data []byte) ([]uint64, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("exp: model payload truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	// n*8 can wrap, so compare the count against the body's word count.
	if len(data)%8 != 0 || n != uint64(len(data)/8) {
		return nil, fmt.Errorf("exp: model payload holds %d bytes for %d counts", len(data), n)
	}
	counts := make([]uint64, n)
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return counts, nil
}

// modelLanes fetches spec's lanes under pred for a model build through the
// engine's annotated and bucket-stream tiers: the records and mispredict
// bits, plus — when table is non-nil — the bucket lane of table's
// geometry, from which the caller derives its low-confidence lane. The
// returned lanes carry no Low lane. The tiers label their own stages with
// fresh label sets, which leave the goroutine unlabelled when they return,
// so modelLanes puts ctx's labels (the model build's) back.
func (s *Session) modelLanes(ctx context.Context, spec workload.Spec, pred PredSpec, table core.Factorable) (lane.Lanes, *bitvec.Dense, error) {
	flat, ann, bs, err := sim.Lanes(s.suiteConfig(), spec, pred.Key, pred.New, table)
	pprof.SetGoroutineLabels(ctx)
	if err != nil {
		return lane.Lanes{}, nil, fmt.Errorf("exp: lanes for %s: %w", spec.Name, err)
	}
	var conf *bitvec.Dense
	if bs != nil {
		conf = bs.Lane()
	}
	return lane.Lanes{Recs: flat.Records(), Miss: ann.MissWords()}, conf, nil
}

// estLanes is modelLanes with the low-confidence lane of table's counters
// below thr: the signal core.CounterReducer{Threshold: thr} draws from the
// same table.
func (s *Session) estLanes(ctx context.Context, spec workload.Spec, pred PredSpec, table core.Factorable, thr uint64) (lane.Lanes, error) {
	l, conf, err := s.modelLanes(ctx, spec, pred, table)
	if err != nil {
		return lane.Lanes{}, err
	}
	l.Low = lane.Below(conf, thr)
	return l, nil
}
