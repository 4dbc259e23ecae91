package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// horizonOracle is the reference for a horizon sweep: one independent
// monolithic RunSuiteAnnotated pass per horizon.
func horizonOracle(t *testing.T, cfg SuiteConfig, horizons []uint64, predKey string, newPred func() predictor.Predictor, mechs []func() core.Mechanism) [][]SuiteResult {
	t.Helper()
	out := make([][]SuiteResult, len(horizons))
	for i, h := range horizons {
		hcfg := cfg
		hcfg.Branches, hcfg.SegmentBranches = h, 0
		rs, err := RunSuiteAnnotated(hcfg, predKey, newPred, mechs)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rs
	}
	return out
}

// checkHorizons fails unless every horizon's results deep-equal the
// oracle's.
func checkHorizons(t *testing.T, leg string, got, want [][]SuiteResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d horizons, want %d", leg, len(got), len(want))
	}
	for h := range want {
		if !reflect.DeepEqual(got[h], want[h]) {
			t.Errorf("%s: horizon %d diverges from an independent pass", leg, h)
		}
	}
}

// TestHorizonsMatchIndependentPasses is the one-walk sweep's oracle check:
// each horizon read as a prefix cut of one walk must deep-equal an
// independent monolithic pass at that horizon — at segment sizes 1, a
// prime, the budget, and zero (one segment per horizon span), with and
// without the tally engine. With the prime grid, 291 = 3×97 cuts on a
// segment boundary and 1000 (listed twice) mid-segment.
func TestHorizonsMatchIndependentPasses(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	const n = 3000
	horizons := []uint64{291, 1000, 1000, n}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	for _, noTally := range []bool{false, true} {
		cfg := SuiteConfig{Specs: workload.Suite()[:2], noTally: noTally}
		want := horizonOracle(t, cfg, horizons, "gshare-64K", newPred, streamTestMechs())
		for _, size := range []uint64{1, 97, n, 0} {
			scfg := cfg
			scfg.SegmentBranches = size
			got, err := RunSuiteHorizons(scfg, horizons, "gshare-64K", newPred, streamTestMechs())
			if err != nil {
				t.Fatalf("segment size %d: %v", size, err)
			}
			checkHorizons(t, fmt.Sprintf("no-tally=%v segment size %d", noTally, size), got, want)
		}
	}
}

// pcConfidence is a live confidence source for a state-coupled mechanism
// that needs no annotation hook.
type pcConfidence struct{}

func (pcConfidence) Confidence(pc uint64) uint8 { return uint8(pc >> 2 & 3) }

// TestStateCoupledFailsClosed: a mechanism that reads predictor state,
// paired with a predictor that cannot annotate it, fails the monolithic,
// streamed and horizon engines with an error naming both, before any trace
// is read.
func TestStateCoupledFailsClosed(t *testing.T) {
	newPred := func() predictor.Predictor {
		p, err := predictor.Build("gselect-64K")
		if err != nil {
			panic(err)
		}
		return p
	}
	mechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.NewNativeConfidence(pcConfidence{}) },
	}
	cfg := SuiteConfig{
		Branches: 2000,
		Specs:    workload.Suite()[:2],
		Source: func(spec workload.Spec, _ uint64) (trace.Source, error) {
			t.Errorf("%s: trace read before the pairing was checked", spec.Name)
			return spec.FiniteSource(2000)
		},
		Buffer: func(spec workload.Spec, n uint64) (*trace.ReplayBuffer, error) {
			t.Errorf("%s: trace read before the pairing was checked", spec.Name)
			return workload.Materialize(spec, n)
		},
	}
	streamed := cfg
	streamed.SegmentBranches = 333
	engines := map[string]func() error{
		"monolithic": func() error { _, err := RunSuiteAnnotated(cfg, "gselect-64K", newPred, mechs); return err },
		"streamed":   func() error { _, err := RunSuiteAnnotated(streamed, "gselect-64K", newPred, mechs); return err },
		"horizons": func() error {
			_, err := RunSuiteHorizons(streamed, []uint64{500, 2000}, "gselect-64K", newPred, mechs)
			return err
		},
	}
	mech, pred := mechs[1]().Name(), newPred().Name()
	for name, run := range engines {
		err := run()
		if err == nil || !strings.Contains(err.Error(), mech) || !strings.Contains(err.Error(), pred) {
			t.Errorf("%s: error %v does not name mechanism %s and predictor %s", name, err, mech, pred)
		}
	}
}

// TestHorizonsWarmAndCorrupted: against an artifact store, a cold sweep
// publishes one payload per (segment, annotated stream or geometry lane)
// of the cut grid; a warm sweep serves them all; and after a mid-run
// segment and its entry checkpoint are corrupted, the unit retries
// forceLive — every result still equal to the independent passes.
func TestHorizonsWarmAndCorrupted(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	const (
		n       = 3000
		segSize = 97
		predKey = "gshare-64K"
	)
	horizons := []uint64{291, 1000, n}
	spec := workload.Suite()[0]
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	mechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func() core.Mechanism { return core.NewAnnotatedStrength() },
	}
	cfg := SuiteConfig{Specs: []workload.Spec{spec}, SegmentBranches: segSize}
	want := horizonOracle(t, cfg, horizons, predKey, newPred, mechs)
	s := streamStore(t)

	ResetStreamStats()
	cold, err := RunSuiteHorizons(cfg, horizons, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	checkHorizons(t, "cold", cold, want)
	// 31 grid segments up to n, plus the mid-segment cut at 1000 (291 sits
	// on the grid); each carries an annotated stream and two geometry lanes.
	if rep := StreamReport(); rep.Misses != 32*3 || rep.Hits != 0 {
		t.Fatalf("cold sweep: hits %d, misses %d, want 0 and %d", rep.Hits, rep.Misses, 32*3)
	}

	ResetStreamStats()
	warm, err := RunSuiteHorizons(cfg, horizons, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	checkHorizons(t, "warm", warm, want)
	if rep := StreamReport(); rep.Misses != 0 || rep.Hits != 32*3 {
		t.Fatalf("warm sweep: hits %d, misses %d", rep.Hits, rep.Misses)
	}

	// Segment 10 spans [970, 1000), ending at the mid-segment cut. Corrupt
	// its annotated stream and the predictor checkpoint at its entry: the
	// payloads pass the store's checksum but not the engine's validation,
	// so the predictor has nothing to resume from.
	grid := segGrid(segSize, horizons)
	if err := s.Put(artifact.KindAnnotatedStream, annSegKey(spec, n, predKey, grid, 10), []byte("corrupt")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(artifact.KindCheckpoint, predCkptKey(spec, n, predKey, grid, 970), []byte("corrupt")); err != nil {
		t.Fatal(err)
	}
	ResetStreamStats()
	healed, err := RunSuiteHorizons(cfg, horizons, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	checkHorizons(t, "corrupted segment", healed, want)
	if rep := StreamReport(); rep.VerifyFails != 1 {
		t.Fatalf("expected one forceLive retry, stats %+v", rep)
	}
}

// TestHorizonsRejectBadLists: horizons must be positive and ascending, and
// a sweep needs a predictor key to key its segments.
func TestHorizonsRejectBadLists(t *testing.T) {
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	mechs := []func() core.Mechanism{func() core.Mechanism { return core.PaperResetting() }}
	cfg := SuiteConfig{Specs: workload.Suite()[:1]}
	for _, tc := range []struct {
		horizons []uint64
		predKey  string
	}{
		{nil, "gshare-64K"},
		{[]uint64{0, 100}, "gshare-64K"},
		{[]uint64{200, 100}, "gshare-64K"},
		{[]uint64{100}, ""},
	} {
		if _, err := RunSuiteHorizons(cfg, tc.horizons, tc.predKey, newPred, mechs); err == nil {
			t.Errorf("horizons %v, key %q: accepted", tc.horizons, tc.predKey)
		}
	}
}
