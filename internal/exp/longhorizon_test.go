package exp

import (
	"reflect"
	"strings"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/sim"
)

// TestLongHorizonStreamingMatchesMonolithic: the long-horizon sweep reads
// its shorter horizons as prefix cuts of one walk; whether that walk
// streams in segments or runs one segment per horizon span, the text must
// match a reference that runs one independent RunSuiteAnnotated pass per
// horizon. The experiment must also be opt-in so default report runs skip
// it. TestAnnotatedMatchesInterleavedArtefacts holds the sweep to the
// interleaved reference engine.
func TestLongHorizonStreamingMatchesMonolithic(t *testing.T) {
	e, err := ByID("longhorizon")
	if err != nil {
		t.Fatal(err)
	}
	if !e.OptIn {
		t.Fatal("longhorizon must be OptIn")
	}
	ref, err := longHorizon(NewSession(Config{Branches: 20000}), func(cfg sim.SuiteConfig, hs []uint64, nm []func() core.Mechanism) ([][]sim.SuiteResult, error) {
		out := make([][]sim.SuiteResult, len(hs))
		for i, h := range hs {
			cfg.Branches = h
			rs, err := sim.RunSuiteAnnotated(cfg, predGshare64K.Key, predGshare64K.New, nm)
			if err != nil {
				return nil, err
			}
			out[i] = rs
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Branches: 20000},
		{Branches: 20000, SegmentBranches: 4096},
	} {
		got, err := e.RunOnce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Text != ref.Text {
			t.Fatalf("%+v: long-horizon sweep diverges from independent passes:\nref:\n%s\ngot:\n%s", cfg, ref.Text, got.Text)
		}
	}
	// Three horizons of the budget, each with a miss rate and three
	// coverage columns.
	if lines := strings.Count(ref.Text, "\n"); lines != 4 {
		t.Fatalf("expected header + 3 horizon rows, got %d lines:\n%s", lines, ref.Text)
	}
	for _, h := range []string{"1250", "5000", "20000"} {
		if !strings.Contains(ref.Text, h) {
			t.Errorf("horizon %s missing from sweep:\n%s", h, ref.Text)
		}
	}
}

// TestSessionStreamingSuiteMatches: a whole session configured to stream
// produces the same suite results as a monolithic one — the exp-layer
// wiring of Config.SegmentBranches down to the sim engine.
func TestSessionStreamingSuiteMatches(t *testing.T) {
	mono := NewSession(Config{Branches: 15000})
	stream := NewSession(Config{Branches: 15000, SegmentBranches: 2048})
	a, err := mono.SuiteOne(predGshare64K, mechResetting)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.SuiteOne(predGshare64K, mechResetting)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("streaming session suite diverges from monolithic")
	}
}
