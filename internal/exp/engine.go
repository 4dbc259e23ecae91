package exp

import (
	"context"
	"crypto/sha256"
	"runtime/pprof"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// The session engine is the single-pass heart of the experiment registry.
// Experiments no longer run private suite sweeps; they declare the
// (predictor, mechanism-set) pairs they need against a shared Session,
// which
//
//   - replays benchmarks from the process-wide materialized-trace cache
//     (workload.Materialize) instead of regenerating the synthetic walk,
//   - routes suite passes through the two-stage annotated engine
//     (sim.RunSuiteAnnotated): the predictor walks each benchmark once per
//     predictor config — memoized process-wide as a compact annotated
//     stream — and mechanisms train by replaying the stream with no
//     predictor in the loop, and
//   - memoizes every (predictor, mechanism) suite pass, so experiments
//     sharing a configuration — concurrent or sequential — reuse results
//     instead of resimulating.
//
// All sharing is exact: replay, batching and result derivation are
// bit-identical to the interleaved predictor-in-the-loop walk
// (sim.RunSuiteBatch), the one reference engine. The differential test in
// engine_test.go renders a registry slice through both at several worker
// counts and segment sizes, and determinism_test.go holds a shared Session
// byte-identical to isolated per-experiment runs.

// PredSpec names a predictor configuration and how to build fresh
// instances of it. Key must be unique per configuration; Pred derives it
// from the instance's Name().
type PredSpec struct {
	Key string
	New func() predictor.Predictor
}

// Pred builds a PredSpec keyed by the constructor's instance name.
func Pred(new func() predictor.Predictor) PredSpec {
	return PredSpec{Key: new().Name(), New: new}
}

// MechSpec names a confidence-mechanism configuration and how to build
// fresh instances of it.
type MechSpec struct {
	Key string
	New func() core.Mechanism
}

// Mech builds a MechSpec keyed by the constructor's instance name.
func Mech(new func() core.Mechanism) MechSpec {
	return MechSpec{Key: new().Name(), New: new}
}

// passKey distinguishes session pass entries from other key kinds when a
// ByteLRU is shared; the string is pred.Key + "\x1f" + mech.Key.
type passKey string

// Session owns the pass cache for one run configuration. It is safe for
// concurrent use by experiments running in parallel, and — unlike the
// original per-report incarnation — is built to live for the process: the
// pass cache is a memo.ByteLRU, so completed passes can be evicted under a
// resident-bytes bound (SetPassBound) and an errored pass is dropped
// rather than negatively cached, letting a later claimant retry it. A
// resident daemon shares one Session per Config across every request that
// names that configuration (see SessionPool), which is what coalesces
// concurrent identical work onto one computation.
type Session struct {
	cfg Config
	// engine runs one suite pass. It is sim.RunSuiteAnnotated; only
	// in-package tests swap in the interleaved reference.
	engine suiteEngine

	passes memo.ByteLRU
	counts memo.Counters
}

// suiteEngine runs cfg's benchmarks under pred with every mechanism in
// newMechs, one SuiteResult per mechanism.
type suiteEngine func(cfg sim.SuiteConfig, pred PredSpec, newMechs []func() core.Mechanism) ([]sim.SuiteResult, error)

// annotatedEngine is the production suite engine.
func annotatedEngine(cfg sim.SuiteConfig, pred PredSpec, newMechs []func() core.Mechanism) ([]sim.SuiteResult, error) {
	return sim.RunSuiteAnnotated(cfg, pred.Key, pred.New, newMechs)
}

// NewSession returns an empty session for the given configuration.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg, engine: annotatedEngine}
}

// Config returns the session's run configuration.
func (s *Session) Config() Config { return s.cfg }

// Branches resolves the per-benchmark branch budget (the suite default
// when the config leaves it zero).
func (s *Session) Branches() uint64 {
	if s.cfg.Branches == 0 {
		return workload.DefaultBranches
	}
	return s.cfg.Branches
}

// Source returns a replay cursor over spec's materialized trace at the
// session budget. Repeated calls (and concurrent experiments) share one
// cached buffer; each cursor replays from the beginning.
func (s *Session) Source(spec workload.Spec) (trace.Source, error) {
	buf, err := workload.Materialize(spec, s.cfg.Branches)
	if err != nil {
		return nil, err
	}
	return buf.Source(), nil
}

// suiteConfig is the session's whole-suite run configuration: the
// session budget with benchmarks fed from the materialized-trace cache,
// for both the interleaved walk (Source) and the annotated two-stage
// engine (Buffer). Under Config.SegmentBranches the materialized-trace
// cache is bypassed entirely — benchmarks stream straight from their
// generators (the sim default Source), so a long-horizon run never holds
// a whole trace in memory.
func (s *Session) suiteConfig() sim.SuiteConfig {
	if s.cfg.SegmentBranches > 0 {
		return sim.SuiteConfig{
			Branches:        s.cfg.Branches,
			SegmentBranches: s.cfg.SegmentBranches,
		}
	}
	return sim.SuiteConfig{
		Branches: s.cfg.Branches,
		Source: func(spec workload.Spec, branches uint64) (trace.Source, error) {
			buf, err := workload.Materialize(spec, branches)
			if err != nil {
				return nil, err
			}
			return buf.Source(), nil
		},
		Buffer: workload.Materialize,
	}
}

// Pass is one (predictor, mechanism) suite pass as the session holds it:
// the engine's per-benchmark results plus each run's tally digest
// (analysis.HashRun), which the curve tier keys on. The pass's owner
// computes the digests once, before publishing the pass, and they are
// evicted with it, so a request that re-reads a resident pass never
// re-hashes its tallies.
type Pass struct {
	sim.SuiteResult
	digests [][sha256.Size]byte // parallel to Runs
}

// newPass digests every run of res under the stage=curve-key profile label.
func newPass(res sim.SuiteResult) Pass {
	ds := make([][sha256.Size]byte, len(res.Runs))
	pprof.Do(context.Background(), pprof.Labels("stage", "curve-key"), func(context.Context) {
		for i, r := range res.Runs {
			ds[i] = analysis.HashRun(r.Buckets)
		}
	})
	return Pass{SuiteResult: res, digests: ds}
}

// Tallies returns every run's tallies in suite order, keyed by the pass's
// stored digests.
func (p Pass) Tallies() RunSet {
	return RunSet{stats: p.Stats(), digests: p.digests}
}

// Pick returns the tallies of the runs at the given suite indices, in that
// order, keyed by the pass's stored digests.
func (p Pass) Pick(idx ...int) RunSet {
	rs := RunSet{
		stats:   make([]analysis.BucketStats, len(idx)),
		digests: make([][sha256.Size]byte, len(idx)),
	}
	for k, i := range idx {
		rs.stats[k] = p.Runs[i].Buckets
		rs.digests[k] = p.digests[i]
	}
	return rs
}

// Suite returns one whole-suite pass per mechanism, all simulated under
// pred, batching every mechanism not already cached into a single
// predictor pass per benchmark. Results are index-aligned with mechs and
// identical to one call per mechanism.
//
// Concurrent callers requesting overlapping sets never duplicate a pass:
// the first claimant of a (predictor, mechanism) key simulates it, later
// ones block on the entry. Claimants may arrive from distinct requests in
// a resident process — the contract is the same. A pass whose simulation
// fails is published as an error to everyone already waiting on it but is
// dropped from the cache, so the next claimant retries instead of
// inheriting a possibly transient failure for the life of the process.
func (s *Session) Suite(pred PredSpec, mechs ...MechSpec) ([]Pass, error) {
	entries := make([]*memo.Entry, len(mechs))
	var missing []int // indices whose entries this call must fill
	for i, m := range mechs {
		e, o := s.passes.Claim(passKey(pred.Key + "\x1f" + m.Key))
		s.counts.Count(o)
		if o == memo.Miss {
			missing = append(missing, i)
		}
		entries[i] = e
	}

	if len(missing) > 0 {
		newMechs := make([]func() core.Mechanism, len(missing))
		for j, i := range missing {
			newMechs[j] = mechs[i].New
		}
		res, err := s.engine(s.suiteConfig(), pred, newMechs)
		for j, i := range missing {
			e := entries[i]
			if err != nil {
				e.Err = err
				s.passes.Finish(e, 0)
				continue
			}
			e.Val = newPass(res[j])
			s.passes.Finish(e, passBytes(res[j]))
		}
	}

	out := make([]Pass, len(mechs))
	for i, e := range entries {
		<-e.Done
		if e.Err != nil {
			return nil, e.Err
		}
		out[i] = e.Val.(Pass)
	}
	return out, nil
}

// passBytes approximates a cached pass's resident footprint for the LRU
// bound: the per-benchmark run headers (with their tally digests) plus
// each bucket tally (map slot, key, and tally block).
func passBytes(res sim.SuiteResult) uint64 {
	const runHeader = 64 + sha256.Size // Result struct + slice slot + name + digest
	const bucketCost = 48              // map bucket share + uint64 key + *Tally + Tally
	b := uint64(32)
	for _, r := range res.Runs {
		b += runHeader + uint64(len(r.Buckets))*bucketCost
	}
	return b
}

// SetPassBound bounds the session's resident pass-cache bytes; completed
// passes are evicted least-recently-used first (0 = unbounded, the
// one-shot default). A resident process sets this so an unbounded request
// mix cannot grow the pass cache without limit.
func (s *Session) SetPassBound(bytes uint64) { s.passes.SetBound(bytes) }

// PassUsage reports the pass cache's approximate resident bytes and
// evictions so far.
func (s *Session) PassUsage() (resident, evictions uint64) { return s.passes.Usage() }

// SuiteOne is Suite for a single mechanism.
func (s *Session) SuiteOne(pred PredSpec, mech MechSpec) (Pass, error) {
	rs, err := s.Suite(pred, mech)
	if err != nil {
		return Pass{}, err
	}
	return rs[0], nil
}

// Stats reports the session's pass-cache claims so far: hits, misses, and
// claims coalesced onto an in-flight pass. Evictions and resident bytes
// are reported separately (PassUsage).
func (s *Session) Stats() artifact.TierStats {
	h, m, co := s.counts.Load()
	return artifact.TierStats{Hits: h, Misses: m, Coalesced: co}
}

// Shared predictor and mechanism specs for the paper's two standard
// predictors and the recurring mechanisms.
var (
	predGshare64K = Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	predGshare4K  = Pred(func() predictor.Predictor { return predictor.Gshare4K() })

	mechStatic    = Mech(func() core.Mechanism { return core.NewStaticProfile() })
	mechResetting = Mech(func() core.Mechanism { return core.PaperResetting() })

	// mechStrength is the predictor-coupled counter-strength mechanism in
	// its annotated form: it reads the captured pre-update counter state,
	// so it batches into shared passes like any independent mechanism.
	mechStrength = Mech(func() core.Mechanism { return core.NewAnnotatedStrength() })
)

// mechOneLevel is the paper one-level CIR mechanism for a given index
// scheme.
func mechOneLevel(scheme core.IndexScheme) MechSpec {
	return Mech(func() core.Mechanism { return core.PaperOneLevel(scheme) })
}

// mechTwoLevel is a two-level mechanism variant.
func mechTwoLevel(s1 core.IndexScheme, s2 core.SecondIndex) MechSpec {
	return Mech(func() core.Mechanism {
		return core.NewTwoLevel(core.TwoLevelConfig{Scheme1: s1, Scheme2: s2})
	})
}
