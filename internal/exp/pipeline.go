package exp

import (
	"context"
	"fmt"
	"strings"

	"branchconf/internal/core"
	"branchconf/internal/lane"
	"branchconf/internal/pipeline"
	"branchconf/internal/workload"
)

// policyLanes returns spec's gshare-4K lanes with the low-confidence lane a
// fetch policy reads: the paper estimator's (resetting counters below thr)
// for thr > 0, the oracle's — low confidence exactly on mispredictions, the
// bound no real estimator can beat — or none.
func (s *Session) policyLanes(ctx context.Context, spec workload.Spec, thr uint64, oracle bool) (lane.Lanes, error) {
	if thr > 0 {
		return s.estLanes(ctx, spec, predGshare4K, core.PaperResetting(), thr)
	}
	l, _, err := s.modelLanes(ctx, spec, predGshare4K, nil)
	if oracle {
		l.Low = l.Miss
	}
	return l, err
}

// packPipeStats flattens a pipeline run's counters for the model tier; the
// unpacker must mirror the order exactly.
func packPipeStats(st pipeline.Stats) []uint64 {
	return []uint64{st.Cycles, st.Retired, st.WrongPath, st.GateStalls, st.Branches, st.Misses}
}

const pipeStatsLen = 6

func unpackPipeStats(c []uint64) pipeline.Stats {
	return pipeline.Stats{Cycles: c[0], Retired: c[1], WrongPath: c[2], GateStalls: c[3], Branches: c[4], Misses: c[5]}
}

// packDualStats flattens a dual-path pipeline run's counters.
func packDualStats(st pipeline.DualPathStats) []uint64 {
	return append(packPipeStats(st.Stats), st.Forks, st.CoveredMiss, st.ForkSlots)
}

const dualStatsLen = pipeStatsLen + 3

func unpackDualStats(c []uint64) pipeline.DualPathStats {
	return pipeline.DualPathStats{Stats: unpackPipeStats(c), Forks: c[6], CoveredMiss: c[7], ForkSlots: c[8]}
}

func init() {
	register(Experiment{
		ID:    "pipeline",
		Title: "Cycle-level pipeline: IPC and wrong-path work under confidence-gated fetch",
		Paper: "IPC framing of the gating trade-off follow-on work quantified; oracle row bounds any estimator",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "pipeline", Title: "pipeline gating at cycle level", Scalars: map[string]float64{}}
			var b strings.Builder
			b.WriteString("policy          IPC    waste%fetch   gate-stall%cycles\n")
			type policy struct {
				label  string
				gate   int
				est    uint64 // resetting-counter threshold; 0 when ungated or oracle
				oracle bool
			}
			policies := []policy{
				{"ungated", 0, 0, false},
				{"est8-gate4", 4, 8, false},
				{"est4-gate2", 2, 4, false},
				{"est2-gate1", 1, 2, false},
				{"oracle-gate1", 1, 0, true},
			}
			mach := pipeline.Default96()
			for _, pol := range policies {
				var ipc, waste, stall float64
				n := 0
				estLabel := "none"
				if pol.oracle {
					estLabel = "oracle"
				} else if pol.gate > 0 {
					estLabel = fmt.Sprintf("paper%d", pol.est)
				}
				m := mach
				m.GateThreshold = pol.gate
				params := fmt.Sprintf("pred=gshare4k|est=%s|fw=%d|depth=%d|gate=%d", estLabel, m.FetchWidth, m.Depth, m.GateThreshold)
				for _, spec := range workload.Suite() {
					counts, err := s.modelCounts(o.ID, modelKey("pipeline", spec.Name, s.Branches(), params), pipeStatsLen, func(ctx context.Context) ([]uint64, error) {
						l, err := s.policyLanes(ctx, spec, pol.est, pol.oracle)
						if err != nil {
							return nil, err
						}
						st, err := pipeline.RunLanes(l, m)
						if err != nil {
							return nil, err
						}
						return packPipeStats(st), nil
					})
					if err != nil {
						return nil, err
					}
					st := unpackPipeStats(counts)
					ipc += st.IPC()
					waste += st.WasteFrac()
					stall += float64(st.GateStalls) / float64(st.Cycles*uint64(m.FetchWidth))
					n++
				}
				ipc, waste, stall = ipc/float64(n), waste/float64(n), stall/float64(n)
				fmt.Fprintf(&b, "%-14s %5.2f   %11.2f   %17.2f\n", pol.label, ipc, 100*waste, 100*stall)
				o.Scalars[pol.label+"-ipc"] = ipc
				o.Scalars[pol.label+"-waste%"] = 100 * waste
			}
			o.Text = b.String()
			return o, nil
		},
	})

	register(Experiment{
		ID:    "dualpath-ipc",
		Title: "Cycle-level selective dual-path execution: IPC vs baseline (application 1 in time)",
		Paper: "§1/§6: fork the non-predicted path on low confidence; coverage should convert into recovered cycles",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "dualpath-ipc", Title: "dual-path at cycle level", Scalars: map[string]float64{}}
			var b strings.Builder
			b.WriteString("policy            IPC    covered%misses   fork%slots\n")
			type policy struct {
				label  string
				est    uint64
				oracle bool
				off    bool
			}
			policies := []policy{
				{label: "no-dual-path", off: true},
				{label: "est4-forks", est: 4},
				{label: "est8-forks", est: 8},
				{label: "oracle-forks", oracle: true},
			}
			mach := pipeline.DualPathConfig{FetchWidth: 4, Depth: 12, ForkWidth: 1}
			for _, pol := range policies {
				var ipc, covered, forkSlots float64
				n := 0
				estLabel := "none"
				if pol.oracle {
					estLabel = "oracle"
				} else if !pol.off {
					estLabel = fmt.Sprintf("paper%d", pol.est)
				}
				for _, spec := range workload.Suite() {
					if pol.off {
						params := fmt.Sprintf("pred=gshare4k|est=none|fw=%d|depth=%d|gate=0", mach.FetchWidth, mach.Depth)
						counts, err := s.modelCounts(o.ID, modelKey("pipeline", spec.Name, s.Branches(), params), pipeStatsLen, func(ctx context.Context) ([]uint64, error) {
							l, err := s.policyLanes(ctx, spec, 0, false)
							if err != nil {
								return nil, err
							}
							st, err := pipeline.RunLanes(l, pipeline.Config{FetchWidth: mach.FetchWidth, Depth: mach.Depth})
							if err != nil {
								return nil, err
							}
							return packPipeStats(st), nil
						})
						if err != nil {
							return nil, err
						}
						ipc += unpackPipeStats(counts).IPC()
						n++
						continue
					}
					params := fmt.Sprintf("pred=gshare4k|est=%s|fw=%d|depth=%d|forkw=%d", estLabel, mach.FetchWidth, mach.Depth, mach.ForkWidth)
					counts, err := s.modelCounts(o.ID, modelKey("pipedual", spec.Name, s.Branches(), params), dualStatsLen, func(ctx context.Context) ([]uint64, error) {
						l, err := s.policyLanes(ctx, spec, pol.est, pol.oracle)
						if err != nil {
							return nil, err
						}
						st, err := pipeline.RunDualPathLanes(l, mach)
						if err != nil {
							return nil, err
						}
						return packDualStats(st), nil
					})
					if err != nil {
						return nil, err
					}
					st := unpackDualStats(counts)
					ipc += st.IPC()
					if st.Misses > 0 {
						covered += float64(st.CoveredMiss) / float64(st.Misses)
					}
					forkSlots += float64(st.ForkSlots) / float64(st.Cycles*uint64(mach.FetchWidth))
					n++
				}
				ipc, covered, forkSlots = ipc/float64(n), covered/float64(n), forkSlots/float64(n)
				fmt.Fprintf(&b, "%-15s %5.2f   %14.1f   %10.1f\n", pol.label, ipc, 100*covered, 100*forkSlots)
				o.Scalars[pol.label+"-ipc"] = ipc
				o.Scalars[pol.label+"-covered%"] = 100 * covered
			}
			o.Text = b.String()
			return o, nil
		},
	})
}
