package sim

import (
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

func TestRunMultiPartitions(t *testing.T) {
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.FiniteSource(100000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMulti(src, predictor.Gshare64K(), core.PaperMultiEstimator())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches() != 100000 {
		t.Fatalf("branches %d", res.Branches())
	}
	if len(res.Levels) != 4 {
		t.Fatalf("%d levels", len(res.Levels))
	}
	// Misprediction rate must decrease with confidence level.
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Rate() >= res.Levels[i-1].Rate() {
			t.Fatalf("level %d rate %.4f not below level %d rate %.4f",
				i, res.Levels[i].Rate(), i-1, res.Levels[i-1].Rate())
		}
	}
	// The top level holds the bulk of branches (zero-bucket analogue).
	top := res.Levels[len(res.Levels)-1]
	if float64(top.Branches)/float64(res.Branches()) < 0.4 {
		t.Fatalf("top level holds only %d/%d branches", top.Branches, res.Branches())
	}
}
