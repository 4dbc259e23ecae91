package sim

import (
	"errors"
	"io"
	"strings"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// failingSource yields n good records then a hard error.
type failingSource struct {
	n   int
	err error
}

func (f *failingSource) Next() (trace.Record, error) {
	if f.n == 0 {
		return trace.Record{}, f.err
	}
	f.n--
	return trace.Record{PC: 0x1000, Target: 0x1040, Taken: true}, nil
}

func TestRunPropagatesSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	res, err := runOne(&failingSource{n: 5, err: boom}, predictor.NewBimodal(8), core.PaperResetting())
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap source error", err)
	}
	// Partial results up to the failure are preserved.
	if res.Branches != 5 {
		t.Fatalf("partial branches %d, want 5", res.Branches)
	}
	if !strings.Contains(err.Error(), "sim:") {
		t.Fatalf("error %q lacks package context", err)
	}
}

func TestRunEstimatorPropagatesSourceError(t *testing.T) {
	boom := errors.New("bad sector")
	_, err := RunEstimator(&failingSource{n: 2, err: boom}, predictor.NewBimodal(8), core.PaperEstimator(8))
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap source error", err)
	}
}

func TestRunMultiPropagatesSourceError(t *testing.T) {
	boom := errors.New("cosmic ray")
	_, err := RunMulti(&failingSource{n: 1, err: boom}, predictor.NewBimodal(8), core.PaperMultiEstimator())
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap source error", err)
	}
}

func TestRunEmptySource(t *testing.T) {
	res, err := runOne(trace.Trace{}.Source(), predictor.NewBimodal(8), core.PaperResetting())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 0 || res.MissRate() != 0 {
		t.Fatalf("empty run %+v", res)
	}
}

// eofOnly always returns io.EOF: Run treats it as a clean end, not error.
func TestRunCleanEOF(t *testing.T) {
	src := trace.FuncSource(func() (trace.Record, error) { return trace.Record{}, io.EOF })
	if _, err := runOne(src, predictor.AlwaysTaken{}, core.NewStaticProfile()); err != nil {
		t.Fatalf("EOF treated as error: %v", err)
	}
}
