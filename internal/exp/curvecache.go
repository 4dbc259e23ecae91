package exp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/memo"
)

// The curve tier: sorted confidence curves are pure functions of the
// per-run integer tallies and the reduction layered on top (composite
// mode plus an optional bucket-merge), so they memoize and persist exactly
// like the simulation intermediates below them. The key is the content
// hash of the tallies (analysis.HashRuns) plus the reduction parameters —
// never an experiment identity — so two experiments deriving the same
// curve share one build, and any change to engine output self-invalidates
// every dependent curve.
//
// The content hash is built from per-run digests (analysis.HashRun). Runs
// read from a resident suite pass carry digests the pass computed once
// (Pass.Tallies, Pass.Pick), so keying a curve over them hashes a few
// dozen bytes and never walks a tally map; run sets derived per request
// (DerivedRuns) hash their tallies once per CurveSet. Either way the key
// follows the tally content, never the identity of the maps holding it.
//
// Warm runs served from this tier skip BuildCurve and the composite build
// entirely: CurveSet defers CompositePooled/CompositeDistinct/Single until
// something actually needs the weighted composite, which on a full curve
// hit is never. Config.NoCurveArtifact bypasses the tier (memory and disk)
// for A/B runs; results are byte-identical either way because the codec
// round-trips every float through its exact bit pattern.

// CurveTier is the process-wide curve memo, a sibling of the annotated and
// bucket-stream tiers under the same resident bound (SetCacheBound).
var CurveTier memo.Tier

// RunSet is the per-run tallies a CurveSet composites, plus their
// HashRun digests: a resident pass's stored digests, or — when digests is
// nil — none yet, so the tallies are hashed when the set is first keyed.
type RunSet struct {
	stats   []analysis.BucketStats
	digests [][sha256.Size]byte // parallel to stats
}

// DerivedRuns wraps tallies built per request — a fresh walk, a re-seeded
// replica, a mix — that no resident pass holds digests for.
func DerivedRuns(stats ...analysis.BucketStats) RunSet {
	return RunSet{stats: stats}
}

// CurveSet is one composite's worth of curves: a set of per-run tallies
// plus a composite mode, from which any number of reductions (the identity
// curve and bucket-merged variants) are derived. The weighted composite
// itself is built lazily — a warm run whose curves all hit the cache never
// pays CompositePooled at all — and at most once, shared across the set's
// reductions (fig8 derives ideal and ones-count curves from one pooled
// composite; both cold builds share it here too).
type CurveSet struct {
	s    *Session
	mode string // "pooled" | "distinct" | "single"
	runs RunSet

	hashOnce sync.Once
	hash     string

	wsOnce sync.Once
	ws     analysis.WeightedStats
}

// Pooled returns the curve set over the equal-weight pooled composite of
// runs (analysis.CompositePooled).
func (s *Session) Pooled(runs RunSet) *CurveSet {
	return &CurveSet{s: s, mode: "pooled", runs: runs}
}

// Distinct returns the curve set over the equal-weight run-distinct
// composite of runs (analysis.CompositeDistinct).
func (s *Session) Distinct(runs RunSet) *CurveSet {
	return &CurveSet{s: s, mode: "distinct", runs: runs}
}

// SingleRun returns the curve set over one unweighted run
// (analysis.Single); run must hold exactly one run.
func (s *Session) SingleRun(run RunSet) *CurveSet {
	if len(run.stats) != 1 {
		panic(fmt.Sprintf("exp: SingleRun over %d runs", len(run.stats)))
	}
	return &CurveSet{s: s, mode: "single", runs: run}
}

// Stats returns the set's weighted composite, building it on first use.
// Callers that need the composite itself (threshold tables, miss rates,
// BuildCurveOrdered) take it from here so a sibling Curve build shares it.
func (c *CurveSet) Stats() analysis.WeightedStats {
	c.wsOnce.Do(func() {
		switch c.mode {
		case "pooled":
			c.ws = analysis.CompositePooled(c.runs.stats)
		case "distinct":
			c.ws = analysis.CompositeDistinct(c.runs.stats)
		default:
			c.ws = analysis.Single(c.runs.stats[0])
		}
	})
	return c.ws
}

// contentHash returns the set's tally content hash, computed at most once:
// combined from stored per-run digests when the runs came from a resident
// pass, hashed from the tallies otherwise.
func (c *CurveSet) contentHash() string {
	c.hashOnce.Do(func() {
		var h [sha256.Size]byte
		if c.runs.digests != nil {
			h = analysis.CombineRunDigests(c.runs.digests)
		} else {
			pprof.Do(context.Background(), pprof.Labels("stage", "curve-key"), func(context.Context) {
				h = analysis.HashRuns(c.runs.stats)
			})
		}
		c.hash = hex.EncodeToString(h[:])
	})
	return c.hash
}

// Curve returns the set's sorted curve under the identity reduction.
func (c *CurveSet) Curve() analysis.Curve {
	return c.curve("", nil)
}

// Merged returns the set's sorted curve after rewriting buckets through
// fn (analysis.WeightedStats.MergeBuckets). desc must uniquely identify
// fn's behaviour — it is the reduction's cache identity; equal descriptors
// with different functions would serve wrong curves.
func (c *CurveSet) Merged(desc string, fn func(uint64) uint64) analysis.Curve {
	if desc == "" {
		panic("exp: Merged requires a non-empty reduction descriptor")
	}
	return c.curve(desc, fn)
}

// build constructs the curve directly from the composite.
func (c *CurveSet) build(fn func(uint64) uint64) analysis.Curve {
	ws := c.Stats()
	if fn != nil {
		ws = ws.MergeBuckets(fn)
	}
	return analysis.BuildCurve(ws)
}

// curve serves one (tallies, mode, reduction) curve through the tier:
// process memo first, disk artifact second, direct build last. Concurrent
// claimants of one key share a single build.
func (c *CurveSet) curve(desc string, fn func(uint64) uint64) analysis.Curve {
	if c.s.cfg.NoCurveArtifact {
		return c.build(fn)
	}
	key := curveArtifactKey(c.contentHash(), c.mode, desc)
	v, _ := CurveTier.Get(key, func() (any, uint64, error) {
		// ok distinguishes a served curve (possibly nil: empty curves are
		// legitimate) from a miss.
		var cv analysis.Curve
		var ok bool
		pprof.Do(context.Background(), pprof.Labels("stage", "curve-load"), func(context.Context) {
			cv, ok = artifact.Load(artifact.KindCurve, key, unmarshalCurve, nil)
		})
		if !ok {
			cv = c.build(fn)
			artifact.Save(artifact.KindCurve, key, func() []byte { return marshalCurve(cv) })
		}
		return cv, uint64(len(cv)) * curvePointWire, nil
	})
	return v.(analysis.Curve)
}

// curveKeyScheme tags how the tally content hash in a curve key is
// derived: "rd" is analysis.HashRuns over per-run digests. Records keyed
// under an earlier scheme miss and are rebuilt once, never mixed in.
const curveKeyScheme = "rd"

// curveArtifactKey is the canonical store key for one curve: codec
// version, key scheme, tally content hash, composite mode, and reduction
// descriptor.
func curveArtifactKey(hash, mode, desc string) string {
	return fmt.Sprintf("curve|v%d|%s|%s|mode=%s|merge=%s", artifact.FormatVersion, curveKeyScheme, hash, mode, desc)
}

// curvePointWire is the wire size of one curve point: seven 64-bit words
// (run, bucket, rate, and the four percentage columns).
const curvePointWire = 7 * 8

// marshalCurve encodes a curve for the artifact tier. Floats are stored as
// IEEE 754 bit patterns, so a decoded curve is byte-identical to the built
// one in every downstream rendering.
func marshalCurve(cv analysis.Curve) []byte {
	out := make([]byte, 0, 8+len(cv)*curvePointWire)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(cv)))
	for _, p := range cv {
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(p.Key.Run)))
		out = binary.LittleEndian.AppendUint64(out, p.Key.Bucket)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Rate))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.EventsPct))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.MissesPct))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.CumEventsPct))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.CumMissesPct))
	}
	return out
}

// unmarshalCurve decodes a curve payload, validating the framing
// exhaustively: any structural mismatch is corruption, never a partial
// curve.
func unmarshalCurve(data []byte) (analysis.Curve, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("exp: curve payload truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) != n*curvePointWire {
		return nil, fmt.Errorf("exp: curve payload holds %d bytes for %d points", len(data), n)
	}
	if n == 0 {
		return nil, nil // an empty curve marshals and builds as nil
	}
	cv := make(analysis.Curve, n)
	for i := range cv {
		w := data[i*curvePointWire:]
		cv[i] = analysis.Point{
			Key: analysis.Key{
				Run:    int(int64(binary.LittleEndian.Uint64(w))),
				Bucket: binary.LittleEndian.Uint64(w[8:]),
			},
			Rate:         math.Float64frombits(binary.LittleEndian.Uint64(w[16:])),
			EventsPct:    math.Float64frombits(binary.LittleEndian.Uint64(w[24:])),
			MissesPct:    math.Float64frombits(binary.LittleEndian.Uint64(w[32:])),
			CumEventsPct: math.Float64frombits(binary.LittleEndian.Uint64(w[40:])),
			CumMissesPct: math.Float64frombits(binary.LittleEndian.Uint64(w[48:])),
		}
	}
	return cv, nil
}
