package exp

import (
	"io"

	"branchconf/internal/analysis"
	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Source-driven reference implementations of the cycle and application
// models: each walks a trace through a live predictor and estimator in the
// loop, the way the models ran before they read the engine's lanes. They
// are deliberately the obvious, unshared form of every model — the
// differential test holds the lane kernels to them.

// refOracle is a perfect confidence signal: low exactly when the
// prediction will be wrong.
type refOracle struct{ pred predictor.Predictor }

func (o refOracle) Confident(r trace.Record) bool { return o.pred.Predict(r) == r.Taken }
func (o refOracle) Update(trace.Record, bool)     {}

// refInstrStream expands a branch source into fetch groups (see
// pipeline's instrStream).
type refInstrStream struct {
	src     trace.Source
	cur     trace.Record
	gapLeft int
	loaded  bool
	done    bool
}

func (s *refInstrStream) nextBulk(max int) (gap int, isBranch bool, rec trace.Record, ok bool, err error) {
	if s.done {
		return 0, false, trace.Record{}, false, nil
	}
	if !s.loaded {
		r, err := s.src.Next()
		if err == io.EOF {
			s.done = true
			return 0, false, trace.Record{}, false, nil
		}
		if err != nil {
			return 0, false, trace.Record{}, false, err
		}
		s.cur = r
		s.gapLeft = int(r.Gap)
		s.loaded = true
	}
	if s.gapLeft > 0 {
		k := s.gapLeft
		if k > max {
			k = max
		}
		s.gapLeft -= k
		return k, false, trace.Record{}, true, nil
	}
	s.loaded = false
	return 0, true, s.cur, true, nil
}

type refOutBranch struct {
	resolveAt uint64
	mispred   bool
	lowConf   bool
}

func refPipelineRun(src trace.Source, pred predictor.Predictor, est pipeline.ConfidenceSignal, cfg pipeline.Config) (pipeline.Stats, error) {
	var st pipeline.Stats
	stream := &refInstrStream{src: src}
	var window []refOutBranch
	lowInFlight := 0
	wrongPath := false
	streamDone := false
	for cycle := uint64(0); ; cycle++ {
		for len(window) > 0 && window[0].resolveAt <= cycle {
			b := window[0]
			window = window[1:]
			if b.lowConf {
				lowInFlight--
			}
			if b.mispred {
				wrongPath = false
			}
		}
		if streamDone && len(window) == 0 {
			st.Cycles = cycle
			return st, nil
		}
		if cfg.GateThreshold > 0 && lowInFlight >= cfg.GateThreshold {
			st.GateStalls += uint64(cfg.FetchWidth)
			continue
		}
		for slot := 0; slot < cfg.FetchWidth; {
			if wrongPath {
				st.WrongPath += uint64(cfg.FetchWidth - slot)
				break
			}
			if streamDone {
				break
			}
			gap, isBranch, rec, ok, err := stream.nextBulk(cfg.FetchWidth - slot)
			if err != nil {
				return st, err
			}
			if !ok {
				streamDone = true
				break
			}
			if !isBranch {
				st.Retired += uint64(gap)
				slot += gap
				continue
			}
			st.Retired++
			slot++
			st.Branches++
			confident := true
			if est != nil {
				confident = est.Confident(rec)
			}
			incorrect := pred.Predict(rec) != rec.Taken
			pred.Update(rec)
			if est != nil {
				est.Update(rec, incorrect)
			}
			if incorrect {
				st.Misses++
				wrongPath = true
			}
			b := refOutBranch{resolveAt: cycle + uint64(cfg.Depth), mispred: incorrect, lowConf: !confident}
			if b.lowConf {
				lowInFlight++
			}
			window = append(window, b)
		}
	}
}

func refPipelineDualPath(src trace.Source, pred predictor.Predictor, est pipeline.ConfidenceSignal, cfg pipeline.DualPathConfig) (pipeline.DualPathStats, error) {
	var st pipeline.DualPathStats
	stream := &refInstrStream{src: src}
	var window []refOutBranch
	var forkUntil uint64
	forkCovers := false
	wrongPath := false
	streamDone := false
	for cycle := uint64(0); ; cycle++ {
		for len(window) > 0 && window[0].resolveAt <= cycle {
			if window[0].mispred {
				wrongPath = false
			}
			window = window[1:]
		}
		if forkUntil != 0 && forkUntil <= cycle {
			forkUntil = 0
			forkCovers = false
		}
		if streamDone && len(window) == 0 && forkUntil == 0 {
			st.Cycles = cycle
			return st, nil
		}
		width := cfg.FetchWidth
		if forkUntil != 0 {
			width -= cfg.ForkWidth
			st.ForkSlots += uint64(cfg.ForkWidth)
		}
		for slot := 0; slot < width; {
			if wrongPath {
				st.WrongPath += uint64(width - slot)
				break
			}
			if streamDone {
				break
			}
			gap, isBranch, rec, ok, err := stream.nextBulk(width - slot)
			if err != nil {
				return st, err
			}
			if !ok {
				streamDone = true
				break
			}
			if !isBranch {
				st.Retired += uint64(gap)
				slot += gap
				continue
			}
			st.Retired++
			slot++
			st.Branches++
			confident := est.Confident(rec)
			incorrect := pred.Predict(rec) != rec.Taken
			pred.Update(rec)
			est.Update(rec, incorrect)
			forked := false
			if !confident && forkUntil == 0 {
				forkUntil = cycle + uint64(cfg.Depth)
				forkCovers = incorrect
				forked = true
				st.Forks++
			}
			if incorrect {
				st.Misses++
				if forked && forkCovers {
					st.CoveredMiss++
				} else {
					wrongPath = true
				}
			}
			window = append(window, refOutBranch{resolveAt: cycle + uint64(cfg.Depth), mispred: incorrect && !(forked && forkCovers)})
		}
	}
}

func refAppDualPath(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfg apps.DualPathConfig) (apps.DualPathResult, error) {
	var res apps.DualPathResult
	busy := make([]int, cfg.MaxThreads-1)
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		for i := range busy {
			if busy[i] > 0 {
				busy[i]--
			}
		}
		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		res.Branches++
		forked := false
		if !confident {
			for i := range busy {
				if busy[i] == 0 {
					busy[i] = cfg.ResolveDistance
					forked = true
					break
				}
			}
			if !forked {
				res.DeniedForks++
			}
		}
		if forked {
			res.Forks++
			res.DualCycles += cfg.ForkPenalty
		}
		if incorrect {
			res.Misses++
			res.BaseCycles += cfg.MispredictPenalty
			if forked {
				res.CoveredMiss++
			} else {
				res.DualCycles += cfg.MispredictPenalty
			}
		}
	}
}

// refGating is one gate configuration run solo, with its own predictor
// and estimator walk.
func refGating(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfg apps.GateConfig) (apps.GateResult, error) {
	type pending struct {
		remaining        int
		lowConf, mispred bool
	}
	var res apps.GateResult
	var window []pending
	lowInFlight, wrongPathDepth := 0, 0
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		kept := window[:0]
		for _, p := range window {
			p.remaining--
			if p.remaining <= 0 {
				if p.lowConf {
					lowInFlight--
				}
				if p.mispred {
					wrongPathDepth--
				}
				continue
			}
			kept = append(kept, p)
		}
		window = kept
		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		work := uint64(r.Gap) + 1
		gated := cfg.Threshold > 0 && lowInFlight >= cfg.Threshold
		switch {
		case gated:
			res.Stalled += work
		case wrongPathDepth > 0:
			res.Wasted += work
		default:
			res.Useful += work
		}
		res.Branches++
		if incorrect {
			res.Misses++
		}
		p := pending{remaining: cfg.ResolveDistance, lowConf: !confident, mispred: incorrect && !gated}
		if p.lowConf {
			lowInFlight++
		}
		if p.mispred {
			wrongPathDepth++
		}
		window = append(window, p)
	}
}

// refSMTThread is one hardware thread with its predictor and estimator in
// the fetch loop and a one-record lookahead.
type refSMTThread struct {
	src    trace.Source
	pred   predictor.Predictor
	est    *core.Estimator
	next   *trace.Record
	done   bool
	squash int
}

func (t *refSMTThread) advance() error {
	r, err := t.src.Next()
	if err == io.EOF {
		t.done, t.next = true, nil
		return nil
	}
	if err != nil {
		return err
	}
	t.next = &r
	return nil
}

func refSMT(threads []*refSMTThread, cfg apps.SMTConfig, maxSlots uint64) (apps.SMTResult, error) {
	res := apps.SMTResult{PerThreadUse: make([]uint64, len(threads))}
	for _, th := range threads {
		if err := th.advance(); err != nil {
			return res, err
		}
	}
	rr := 0
	for res.Slots < maxSlots {
		for _, th := range threads {
			if th.squash > 0 {
				th.squash--
			}
		}
		pick := -1
		for scan := 0; scan < len(threads); scan++ {
			i := (rr + scan) % len(threads)
			th := threads[i]
			if th.done || th.squash > 0 {
				continue
			}
			if cfg.Gated && !th.est.Confident(*th.next) {
				res.GatedSkips++
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			for scan := 0; scan < len(threads); scan++ {
				i := (rr + scan) % len(threads)
				if !threads[i].done && threads[i].squash == 0 {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			res.Slots++
			continue
		}
		th := threads[pick]
		rr = (pick + 1) % len(threads)
		r := *th.next
		incorrect := th.pred.Predict(r) != r.Taken
		th.pred.Update(r)
		th.est.Update(r, incorrect)
		fetched := uint64(r.Gap) + 1
		if incorrect {
			res.Useful++
			res.Wasted += fetched - 1
			th.squash = cfg.ResolveSlots
		} else {
			res.Useful += fetched
			res.PerThreadUse[pick] += fetched
		}
		res.Slots++
		if err := th.advance(); err != nil {
			return res, err
		}
		if th.done {
			return res, nil
		}
	}
	return res, nil
}

// refCompareHybrids runs the live confidence hybrid, a tournament and both
// solo components in lockstep: six predictor walks and two table walks.
func refCompareHybrids(src trace.Source, newA, newB func() predictor.Predictor, chooserBits uint) (apps.HybridComparison, error) {
	conf := apps.NewConfidenceHybrid(newA(), newB(), apps.HybridTable(), apps.HybridTable(), true)
	tour := predictor.NewTournament(newA(), newB(), chooserBits)
	soloA, soloB := newA(), newB()
	var res apps.HybridComparison
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		res.Branches++
		for _, x := range []struct {
			p predictor.Predictor
			n *uint64
		}{{conf, &res.ConfHybrid}, {tour, &res.Tournament}, {soloA, &res.SoloA}, {soloB, &res.SoloB}} {
			if x.p.Predict(r) != r.Taken {
				*x.n++
			}
		}
		conf.Update(r)
		tour.Update(r)
		soloA.Update(r)
		soloB.Update(r)
	}
}

// refReverserStudy profiles a reversal set on one walk and evaluates it on
// a second, inverting each prediction in a reversed bucket.
func refReverserStudy(profileSrc, evalSrc trace.Source, newPred func() predictor.Predictor, newMech func() core.Mechanism, threshold float64) (apps.ReverserResult, int, error) {
	stats := make(analysis.BucketStats)
	pred, mech := newPred(), newMech()
	for {
		r, err := profileSrc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return apps.ReverserResult{}, 0, err
		}
		incorrect := pred.Predict(r) != r.Taken
		stats.Add(mech.Bucket(r), incorrect)
		pred.Update(r)
		mech.Update(r, incorrect)
	}
	rev := map[uint64]bool{}
	for b, t := range stats {
		if t.Events >= 64 && t.Rate() > threshold {
			rev[b] = true
		}
	}
	var res apps.ReverserResult
	pred, mech = newPred(), newMech()
	for {
		r, err := evalSrc.Next()
		if err == io.EOF {
			return res, len(rev), nil
		}
		if err != nil {
			return res, 0, err
		}
		p := pred.Predict(r)
		reverse := rev[mech.Bucket(r)]
		final := p != reverse
		if reverse {
			res.Reversals++
		}
		baseIncorrect, finalIncorrect := p != r.Taken, final != r.Taken
		if reverse && baseIncorrect && !finalIncorrect {
			res.GoodReversals++
		}
		pred.Update(r)
		mech.Update(r, baseIncorrect)
		res.Branches++
		if baseIncorrect {
			res.BaseMisses++
		}
		if finalIncorrect {
			res.ReversedMisses++
		}
	}
}
