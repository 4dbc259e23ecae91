package exp

import (
	"reflect"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// switchRuns walks n branches of groff once under gshare-64K, training the
// plain one-level table and each switched mechanism side by side.
func switchRuns(t *testing.T, n uint64, switched ...MechSpec) []sim.Result {
	t.Helper()
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	mechs := []core.Mechanism{core.PaperOneLevel(core.IndexPCxorBHR)}
	for _, m := range switched {
		mechs = append(mechs, m.New())
	}
	rs, err := sim.RunBatch(src, predictor.Gshare64K(), mechs)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestSwitchedNoOpMatchesPlainRun: a switch treatment that leaves the
// table alone reproduces the plain one-level run exactly, across switches.
func TestSwitchedNoOpMatchesPlainRun(t *testing.T) {
	rs := switchRuns(t, 2*switchInterval+1_000, mechSwitched("noop", core.InitOnes, func(*core.OneLevel) {}))
	if !reflect.DeepEqual(rs[0], rs[1]) {
		t.Fatalf("no-op switch diverged: %d misses, %d buckets vs %d, %d",
			rs[1].Misses, len(rs[1].Buckets), rs[0].Misses, len(rs[0].Buckets))
	}
}

// TestSwitchedFlushZerosHurts: flushing the table to zeros at every switch
// degrades confidence quality against keeping it (the §5.4 / Fig. 11
// effect at switch time).
func TestSwitchedFlushZerosHurts(t *testing.T) {
	rs := switchRuns(t, 6*switchInterval, mechSwitched("flush-zeros", core.InitZeros, (*core.OneLevel).Reset))
	at20 := func(r sim.Result) float64 {
		return analysis.BuildCurve(analysis.CompositePooled([]analysis.BucketStats{r.Buckets})).MispredsAt(20)
	}
	if keep, zeros := at20(rs[0]), at20(rs[1]); zeros >= keep {
		t.Fatalf("flush-to-zeros (%.1f) not worse than keep (%.1f)", zeros, keep)
	}
}
