package sim

import (
	"fmt"

	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Process-wide annotated-stream cache. The predictor stage of the engine is
// a pure function of (benchmark spec, branch budget, predictor config), so
// its outputs are memoized exactly like materialized traces:
//
//   - flat views (fully decoded records, 24 B/branch) are keyed by (spec,
//     budget) and shared across every predictor config, and
//   - annotated streams (mispredict + state bits, ~3/8 B/branch for gshare)
//     are keyed by (spec, budget, predictor key).
//
// Both kinds live in one memo.Tier, AnnotatedTier, so they share a single
// resident-bytes budget; the tier counts annotated-stream claims only (the
// expensive artifact), one per (suite run, benchmark), while flat views
// piggyback on the same keys one level up. The stage-3 bucket-stream tier
// (tally.go) is a sibling instance.

type flatKey struct {
	spec workload.Spec
	n    uint64
}

type annKey struct {
	spec    workload.Spec
	n       uint64
	predKey string
}

// AnnotatedTier memoizes flat views and annotated streams.
var AnnotatedTier memo.Tier

// flatFor returns the shared flat view for (spec, budget), building it from
// the suite's replay buffer on first use.
func flatFor(cfg SuiteConfig, spec workload.Spec, n uint64) (*trace.FlatView, error) {
	v, err := AnnotatedTier.GetUncounted(flatKey{spec: spec, n: n}, func() (any, uint64, error) {
		buf, err := cfg.buffer(spec)
		if err != nil {
			return nil, 0, err
		}
		flat := buf.Flatten()
		return flat, flat.Footprint(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.FlatView), nil
}

// annotatedFor returns the (flat view, annotated stream) pair for one
// benchmark under one predictor config, running the predictor stage only on
// a miss in both the tier and the artifact store. Concurrent claimants of
// the same key share one build.
func annotatedFor(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor) (*trace.FlatView, *AnnotatedStream, error) {
	n := cfg.Branches
	if n == 0 {
		n = spec.DefaultBranches
	}
	flat, err := flatFor(cfg, spec, n)
	if err != nil {
		return nil, nil, err
	}
	v, err := AnnotatedTier.Get(annKey{spec: spec, n: n, predKey: predKey}, func() (any, uint64, error) {
		// The decoded stream must cover exactly the flat view's branches;
		// anything else is corruption.
		key := annArtifactKey(spec, n, predKey)
		ann, ok := artifact.Load(artifact.KindAnnotatedStream, key, unmarshalAnnotatedStream,
			func(ann *AnnotatedStream) bool { return ann.n == flat.Len() })
		if !ok {
			ann = Annotate(flat, newPred())
			artifact.Save(artifact.KindAnnotatedStream, key, func() []byte { return marshalAnnotatedStream(ann) })
		}
		return ann, ann.Footprint(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return flat, v.(*AnnotatedStream), nil
}

// Lanes returns one benchmark's per-branch lanes under one predictor
// config — the flat view and the annotated stream and, when geom is
// non-nil, geom's bucket stream — through the same single-flight annotated
// and bucket-stream tiers the suite passes use. The cycle and application
// models read these lanes instead of walking a predictor: a lane a pass
// already built is a hit, and one built here is a hit for later passes.
func Lanes(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor, geom core.Factorable) (*trace.FlatView, *AnnotatedStream, *BucketStream, error) {
	flat, ann, err := annotatedFor(cfg, spec, predKey, newPred)
	if err != nil || geom == nil {
		return flat, ann, nil, err
	}
	bs, err := bucketStreamFor(cfg, spec, predKey, flat, ann, geom)
	return flat, ann, bs, err
}

// annArtifactKey is the canonical disk-store key for one annotated stream:
// codec version, full spec identity, resolved budget, and predictor config.
func annArtifactKey(spec workload.Spec, n uint64, predKey string) string {
	return fmt.Sprintf("ann|v%d|%s|n=%d|pred=%s", artifact.FormatVersion, spec.CacheKey(), n, predKey)
}
