package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/heapwatch"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Segmented streaming engine: the bounded-memory form of the three-stage
// pipeline for horizons no whole-trace buffer can hold. Instead of
// materialize-whole → annotate-whole → tally-whole, a unit (one benchmark ×
// one predictor config × all mechanisms) walks fixed-size trace segments:
//
//	producer: materialize segment k+1 → annotate it (predictor carried
//	          across segments) → hand it over a bounded channel
//	consumer: tally segment k through each geometry's resumable factor
//	          state (core.Resumable) → replay it into the rest
//
// so annotation of segment k+1 overlaps tallying of segment k, and at most
// streamInflightSegments+2 segments are resident per unit at any horizon.
// Per-branch work is byte-identical to the monolithic engine: segments
// decode to exactly the monolithic records (trace.Segmenter), the carried
// predictor observes every branch in order, resumable factor states emit
// the monolithic bucket sequence (core.FactorState), and per-segment
// histograms merge exactly (analysis.TallyMerger). Pinned by
// TestStreamingMatchesMonolithic across segment sizes including 1.
//
// Warm starts carry over via segment-indexed artifacts: each segment's
// annotated stream and bucket streams persist under keys carrying the
// segment size and index, and compact predictor/factor-state checkpoints
// (Checkpoint) persist at segment boundaries, so a later process can serve
// some segments from disk and resume the walk at the first cold one. A warm
// segment leaves the walk state stale; if the following cold segment finds
// no valid boundary checkpoint to revive it, the unit retries once with
// every disk read skipped (forceLive), rebuilding — and re-publishing —
// everything from the start of the trace.
//
// A unit may also carry several horizons (RunSuiteHorizons): the segment
// grid is cut at each one, and at each cut the consumer snapshots every
// geometry lane's merged tally, every replay accumulator, and the running
// branch and miss counts, then keeps walking. A shorter horizon's trace is
// an exact prefix of the longer one's, and tallies are exact integer sums,
// so each snapshot equals an independent pass at that horizon while the
// prefix is walked once.

// streamInflightSegments is the bounded channel capacity between the
// annotate producer and the tally/replay consumer. With the segment the
// producer is preparing and the one the consumer holds, a unit keeps at
// most this+2 segments resident.
const streamInflightSegments = 2

// errStaleState aborts a streaming pass when a warm segment left the walk
// state stale and the next cold segment has no usable boundary checkpoint.
// The unit then reruns forceLive.
var errStaleState = errors.New("sim: stale streaming state: no usable checkpoint after warm segment")

// Streaming observability: warm vs live segment payloads, forceLive
// retries, checkpoint restores, and the in-flight segment-bytes high-water
// mark (the quantity the bounded pipeline keeps flat at any horizon).
var (
	streamSegWarm       atomic.Uint64
	streamSegLive       atomic.Uint64
	streamRetries       atomic.Uint64
	streamCkptRestores  atomic.Uint64
	streamInflightBytes atomic.Int64
	streamPeakBytes     atomic.Int64
)

// StreamReport returns the streaming engine's observability quad: Hits are
// segment payloads (annotated or bucket) served from the artifact tier,
// Misses are segment payloads built live, VerifyFails are forceLive unit
// retries after stale-state aborts, and ResidentBytes is the peak bytes of
// in-flight segments across all concurrent units.
func StreamReport() artifact.TierStats {
	return artifact.TierStats{
		Hits:          streamSegWarm.Load(),
		Misses:        streamSegLive.Load(),
		VerifyFails:   streamRetries.Load(),
		ResidentBytes: uint64(streamPeakBytes.Load()),
	}
}

// ResetStreamStats zeroes the streaming counters (tests and batch
// boundaries).
func ResetStreamStats() {
	streamSegWarm.Store(0)
	streamSegLive.Store(0)
	streamRetries.Store(0)
	streamCkptRestores.Store(0)
	streamInflightBytes.Store(0)
	streamPeakBytes.Store(0)
}

// trackInflight adds one segment's payload bytes to the in-flight gauge and
// advances the high-water mark.
func trackInflight(b int64) {
	cur := streamInflightBytes.Add(b)
	for {
		p := streamPeakBytes.Load()
		if cur <= p || streamPeakBytes.CompareAndSwap(p, cur) {
			return
		}
	}
}

func untrackInflight(b int64) { streamInflightBytes.Add(-b) }

// segMsg is one annotated segment in flight from producer to consumer. The
// trace rides as the compact varint replay buffer (~5 bytes per branch),
// not a flat view: the consumer flattens it into the unit's one reusable
// scratch view, so queued segments stay cheap and the 24-bytes-per-branch
// decode buffer exists once per unit, not once per queued segment.
type segMsg struct {
	err   error
	idx   int    // segment index
	start uint64 // branch position of the segment's first record
	buf   *trace.ReplayBuffer
	ann   *AnnotatedStream
	bytes int64 // tracked in-flight footprint
}

// RunSuiteHorizons runs the suite at each of several ascending branch
// horizons in one streaming walk per benchmark: result[h] equals
// RunSuiteAnnotated with Branches = horizons[h] (cfg.Branches is ignored),
// but every benchmark's trace is generated, annotated and tallied once, up
// to the last horizon. Segments are cfg.SegmentBranches long, or one per
// horizon span when it is zero, so a sweep at a budget that would not
// otherwise stream still walks once.
func RunSuiteHorizons(cfg SuiteConfig, horizons []uint64, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism) ([][]SuiteResult, error) {
	if len(horizons) == 0 || predKey == "" {
		return nil, errors.New("sim: a horizon sweep needs at least one horizon and a predictor key")
	}
	for i, h := range horizons {
		if h == 0 || i > 0 && h < horizons[i-1] {
			return nil, fmt.Errorf("sim: horizons %v are not positive and ascending", horizons)
		}
	}
	cfg.Branches = horizons[len(horizons)-1]
	if cfg.SegmentBranches == 0 {
		cfg.SegmentBranches = cfg.Branches
	}
	return runSuiteStreaming(cfg, horizons, predKey, newPred, newMechs)
}

// runSuiteStreaming is the segmented engine behind RunSuiteAnnotated
// (dispatched when cfg.SegmentBranches > 0, with the one horizon
// cfg.Branches) and RunSuiteHorizons; results are indexed [horizon][mech].
// Fan-out is unit-major — one slot-bounded goroutine per benchmark, each
// running its own producer/consumer pipeline — rather than the monolithic
// engine's mechanism-major chunking: a streaming unit's stages are already
// overlapped internally, and unit-major keeps every unit's resident
// segments independently bounded.
func runSuiteStreaming(cfg SuiteConfig, horizons []uint64, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism) ([][]SuiteResult, error) {
	specs := cfg.specs()
	perSpec := make([][][]Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := acquireSlot()
			defer release()
			perSpec[i], errs[i] = runStreamUnit(cfg, spec, horizons, predKey, newPred, newMechs)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([][]SuiteResult, len(horizons))
	for h := range horizons {
		out[h] = make([]SuiteResult, len(newMechs))
		for j := range newMechs {
			runs := make([]Result, len(specs))
			for i := range specs {
				runs[i] = perSpec[i][h][j]
			}
			out[h][j] = SuiteResult{Runs: runs}
		}
	}
	return out, nil
}

// runStreamUnit runs one streaming unit, retrying once with all disk reads
// skipped when partially warm artifacts leave the walk unresumable.
func runStreamUnit(cfg SuiteConfig, spec workload.Spec, horizons []uint64, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism) ([][]Result, error) {
	rs, err := streamUnitOnce(cfg, spec, horizons, predKey, newPred, newMechs, false)
	if errors.Is(err, errStaleState) {
		streamRetries.Add(1)
		rs, err = streamUnitOnce(cfg, spec, horizons, predKey, newPred, newMechs, true)
	}
	return rs, err
}

// geomLane is one geometry's rolling tally state within a streaming unit:
// the resumable mechanism serving the geometry, the factor state positioned
// at stAt (nil after a warm segment leaves it stale), and the merger
// folding per-segment histograms into the unit's base histogram.
type geomLane struct {
	fm     core.Resumable
	geom   string
	width  uint
	st     core.FactorState
	stAt   uint64
	merger *analysis.TallyMerger
	lane   *bitvec.Dense // scratch bucket lane, reset and refilled per segment
	counts []uint64      // running fused histogram across live segments (nil until first)
}

// streamUnitOnce runs one benchmark's bounded pipeline, returning results
// per horizon. forceLive skips every artifact read — walks rebuild from the
// start of the trace — while still publishing fresh payloads, healing
// whatever gap aborted the first pass.
func streamUnitOnce(cfg SuiteConfig, spec workload.Spec, horizons []uint64, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism, forceLive bool) ([][]Result, error) {
	budget := horizons[len(horizons)-1]
	if budget == 0 {
		budget = spec.DefaultBranches
		horizons = []uint64{budget}
	}
	segSize := cfg.SegmentBranches
	grid := segGrid(segSize, horizons)

	mechs := make([]core.Mechanism, len(newMechs))
	for j := range newMechs {
		mechs[j] = newMechs[j]()
	}
	pred := newPred()
	_, wantState := pred.(predictor.StateAnnotator)
	needsState := false
	for _, m := range mechs {
		if _, sc := m.(core.StateCoupled); sc {
			needsState = true
			break
		}
	}
	if needsState && !wantState {
		// The predictor cannot annotate the state a mechanism reads; the
		// whole unit falls back to the interleaved single-pass engine, which
		// streams record-by-record and is bounded-memory by construction,
		// one pass per horizon.
		out := make([][]Result, len(horizons))
		for h, n := range horizons {
			hcfg := cfg
			hcfg.Branches = n
			if h > 0 {
				for j := range newMechs {
					mechs[j] = newMechs[j]()
				}
			}
			rs, err := runInterleavedUnit(hcfg, spec, newPred, mechs)
			if err != nil {
				return nil, err
			}
			out[h] = rs
		}
		return out, nil
	}

	// Partition mechanisms: resumable factorable geometries tally per
	// segment through a shared lane walk; everything else (StateCoupled,
	// non-factorable, or all of them under NoTally) replays per segment
	// with accumulators persisting across segments.
	var lanes []*geomLane
	laneByGeom := map[string]int{}
	laneOf := make([]int, len(mechs)) // index into lanes; -1 when replayed
	var replayMechs []core.Mechanism
	var replayAt []int
	for j, m := range mechs {
		fm, resumable := m.(core.Resumable)
		_, sc := m.(core.StateCoupled)
		if !cfg.NoTally && resumable && !sc {
			key := fm.GeometryKey()
			i, ok := laneByGeom[key]
			if !ok {
				i = len(lanes)
				laneByGeom[key] = i
				lanes = append(lanes, &geomLane{fm: fm, geom: key, width: fm.BucketWidth(), merger: analysis.NewTallyMerger()})
			}
			laneOf[j] = i
		} else {
			laneOf[j] = -1
			replayMechs = append(replayMechs, m)
			replayAt = append(replayAt, j)
		}
	}
	accums := make([]*bucketAccum, len(replayMechs))
	for k := range accums {
		accums[k] = newBucketAccum()
	}

	ch := make(chan segMsg, streamInflightSegments)
	stop := make(chan struct{})
	// Consumed segments cycle back to the producer for storage reuse: a
	// long walk keeps a handful of segment buffers and annotated streams
	// alive instead of allocating — and garbage-collecting — one pair per
	// segment, which is what keeps peak heap flat at any horizon rather
	// than merely the tracked in-flight bytes.
	freeBufs := make(chan *trace.ReplayBuffer, streamInflightSegments+2)
	freeAnns := make(chan *AnnotatedStream, streamInflightSegments+2)
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		defer close(ch)
		streamProduce(cfg, spec, predKey, pred, budget, segSize, horizons, grid, wantState, forceLive, ch, stop, freeBufs, freeAnns)
	}()

	var err error
	var pos, cum uint64
	// cut freezes the unit at the current position. Until the final cut it
	// copies the lane and accumulator state, which keeps running.
	cut := func(final bool) *unitCut {
		c := &unitCut{pos: pos, cum: cum, lanes: make([]laneCut, len(lanes)), replay: make([]analysis.BucketStats, len(accums))}
		for i, g := range lanes {
			c.lanes[i] = g.cut(final)
		}
		for x, acc := range accums {
			if final {
				c.replay[x] = acc.stats()
			} else {
				c.replay[x] = acc.snapshot()
			}
		}
		return c
	}
	cuts := make([]*unitCut, len(horizons))
	next := 0                   // first horizon not yet cut
	var scratch *trace.FlatView // one decode buffer for every segment
consume:
	for msg := range ch {
		if msg.err != nil {
			err = msg.err
			break
		}
		flat := msg.buf.FlattenInto(scratch)
		scratch = flat
		segN := uint64(flat.Len())
		for _, g := range lanes {
			if e := consumeSegGeom(g, spec, predKey, budget, grid, flat, msg, cum, forceLive); e != nil {
				err = e
				untrackInflight(msg.bytes)
				break consume
			}
		}
		if len(lanes) > 0 {
			heapwatch.Sample("stream-tally")
		}
		if len(replayMechs) > 0 {
			pprof.Do(context.Background(), pprof.Labels("benchmark", spec.Name, "stage", "stream-replay"), func(context.Context) {
				replayAnnotated(flat, msg.ann, replayMechs, accums)
			})
			heapwatch.Sample("stream-replay")
		}
		cum += msg.ann.misses
		pos += segN
		// The grid is cut at every horizon, so a horizon short of the
		// budget is reached exactly at a segment's end.
		if last := len(horizons) - 1; next < last && horizons[next] <= pos {
			c := cut(false)
			for ; next < last && horizons[next] <= pos; next++ {
				cuts[next] = c
			}
		}
		untrackInflight(msg.bytes)
		select {
		case freeBufs <- msg.buf:
		default:
		}
		select {
		case freeAnns <- msg.ann:
		default:
		}
	}
	close(stop)
	prodWG.Wait()
	if err != nil {
		return nil, err
	}

	// The last horizon, and any the trace ended before reaching, read the
	// walk's end state, as an independent pass at that horizon would.
	c := cut(true)
	for ; next < len(horizons); next++ {
		cuts[next] = c
	}
	// Lane cuts expand into bucket maps only now, after the walk, so the
	// maps never share the heap with the walk's segment buffers.
	out := make([][]Result, len(horizons))
	for h, c := range cuts {
		if h > 0 && c == cuts[h-1] {
			out[h] = out[h-1]
			continue
		}
		stats := make([]analysis.BucketStats, len(lanes))
		for i, lc := range c.lanes {
			stats[i] = lc.stats()
		}
		rs := make([]Result, len(mechs))
		for j := range mechs {
			rs[j] = Result{Benchmark: spec.Name, Branches: c.pos, Misses: c.cum}
			if i := laneOf[j]; i >= 0 {
				rs[j].Buckets = stats[i]
			}
		}
		for x, j := range replayAt {
			rs[j].Buckets = c.replay[x]
		}
		out[h] = rs
	}
	return out, nil
}

// unitCut is a streaming unit frozen at a horizon: the branch and miss
// counts there, each geometry lane's tally (index-aligned with the unit's
// lanes), and each replay accumulator's statistics.
type unitCut struct {
	pos, cum uint64
	lanes    []laneCut
	replay   []analysis.BucketStats
}

// laneCut is a geometry lane's tally frozen at a horizon: the merged warm
// and wide segments plus the running fused histogram's occupied buckets as
// (bucket, events, misses) triples, a compact form that costs neither a
// copy of the whole 2<<width histogram nor a map entry per bucket while
// the walk goes on.
type laneCut struct {
	merged analysis.BucketStats
	fused  []uint64
}

// cut freezes the lane's tally through the walk's current position. Unless
// final, it copies the merged statistics, which keep accumulating.
func (g *geomLane) cut(final bool) laneCut {
	occupied := 0
	for b := 0; b < len(g.counts); b += 2 {
		if g.counts[b] != 0 {
			occupied++
		}
	}
	c := laneCut{merged: g.merger.Stats(), fused: make([]uint64, 0, 3*occupied)}
	for b := 0; b < len(g.counts); b += 2 {
		if g.counts[b] != 0 {
			c.fused = append(c.fused, uint64(b>>1), g.counts[b], g.counts[b+1])
		}
	}
	if !final && len(c.merged) > 0 {
		m := analysis.NewTallyMerger()
		m.Merge(c.merged)
		c.merged = m.Stats()
	}
	return c
}

// stats expands the cut into bucket statistics (exact integer sums, so the
// merge order is immaterial).
func (c laneCut) stats() analysis.BucketStats {
	n := len(c.fused) / 3
	bs := make(analysis.BucketStats, n)
	block := make([]analysis.Tally, n)
	for i := range block {
		block[i] = analysis.Tally{Events: c.fused[3*i+1], Misses: c.fused[3*i+2]}
		bs[c.fused[3*i]] = &block[i]
	}
	if len(c.merged) == 0 {
		return bs
	}
	m := analysis.NewTallyMerger()
	m.Merge(c.merged)
	m.Merge(bs)
	return m.Stats()
}

// streamProduce is the producer half of a unit's pipeline: it materializes
// and annotates segments in trace order, serving warm annotated segments
// from the artifact tier when possible and reviving the predictor from a
// boundary checkpoint when a warm segment left it stale. Each prepared
// segment is handed over ch; a closed stop channel (consumer error) ends
// production.
func streamProduce(cfg SuiteConfig, spec workload.Spec, predKey string, pred predictor.Predictor, budget, segSize uint64, horizons []uint64, grid string, wantState, forceLive bool, ch chan<- segMsg, stop <-chan struct{}, freeBufs chan *trace.ReplayBuffer, freeAnns chan *AnnotatedStream) {
	fail := func(err error) {
		select {
		case ch <- segMsg{err: err}:
		case <-stop:
		}
	}
	src, err := cfg.source(spec)
	if err != nil {
		fail(err)
		return
	}
	segr := trace.NewSegmenter(src, int(segSize), horizons...)
	ckpred, canCkpt := pred.(predictor.Checkpointer)
	predValid := true // pred is trained exactly through the current boundary
	var pos, cum uint64
	for idx := 0; ; idx++ {
		select {
		case b := <-freeBufs:
			segr.Recycle(b)
		default:
		}
		buf, err := segr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			fail(err)
			return
		}
		heapwatch.Sample("stream-materialize")
		var ann *AnnotatedStream
		if !forceLive {
			ann = annSegFromDisk(spec, budget, predKey, grid, idx, buf.Len(), wantState)
		}
		if ann != nil {
			// The predictor did not observe this segment; it can only
			// continue from a boundary checkpoint.
			predValid = false
			streamSegWarm.Add(1)
		} else {
			if !predValid {
				if !canCkpt || !restorePredCkpt(ckpred, spec, budget, predKey, grid, pos, cum) {
					fail(errStaleState)
					return
				}
				streamCkptRestores.Add(1)
				predValid = true
			}
			var spare *AnnotatedStream
			select {
			case spare = <-freeAnns:
			default:
			}
			pprof.Do(context.Background(), pprof.Labels("benchmark", spec.Name, "stage", "stream-annotate"), func(context.Context) {
				ann = annotateBufferInto(buf, pred, spare)
			})
			heapwatch.Sample("stream-annotate")
			artifact.Save(artifact.KindAnnotatedStream, annSegKey(spec, budget, predKey, grid, idx), func() []byte { return marshalAnnotatedStream(ann) })
			streamSegLive.Add(1)
		}
		cum += ann.misses
		pos += uint64(buf.Len())
		if predValid && canCkpt && pos < budget {
			artifact.Save(artifact.KindCheckpoint, predCkptKey(spec, budget, predKey, grid, pos), func() []byte {
				return MarshalCheckpoint(Checkpoint{Branch: pos, Misses: cum, State: ckpred.MarshalState()})
			})
		}
		bytes := int64(buf.Footprint() + ann.Footprint())
		trackInflight(bytes)
		select {
		case ch <- segMsg{idx: idx, start: pos - uint64(buf.Len()), buf: buf, ann: ann, bytes: bytes}:
		case <-stop:
			untrackInflight(bytes)
			return
		}
	}
}

// consumeSegGeom advances one geometry lane through one segment: serve the
// segment's bucket stream warm from the artifact tier, or walk it live from
// the geometry's factor state — reviving the state from a boundary
// checkpoint if a warm segment left it stale. cumStart is the unit's
// cumulative miss count at the segment's first branch, cross-checked
// against checkpoints and folded into the one written at the exit boundary.
func consumeSegGeom(g *geomLane, spec workload.Spec, predKey string, budget uint64, grid string, flat *trace.FlatView, msg segMsg, cumStart uint64, forceLive bool) error {
	segN := flat.Len()
	if !forceLive {
		if bs := bucketSegFromDisk(spec, budget, predKey, g.geom, grid, msg.idx, msg.ann); bs != nil {
			g.merger.Merge(bs.Stats())
			g.st = nil // the walk state did not observe this segment
			streamSegWarm.Add(1)
			return nil
		}
	}
	if g.st == nil || g.stAt != msg.start {
		if msg.start == 0 {
			g.st = g.fm.NewFactorState()
		} else {
			st, ok := restoreGeomCkpt(g.fm, spec, budget, predKey, g.geom, grid, msg.start, cumStart)
			if !ok {
				return errStaleState
			}
			g.st = st
			streamCkptRestores.Add(1)
		}
		g.stAt = msg.start
	}
	if g.lane == nil {
		g.lane = bitvec.NewDense(g.width, segN)
	} else {
		g.lane.Reset()
	}
	lane := g.lane
	// Live fused segments fold straight into the geometry's running uint64
	// histogram — no per-segment map. The per-segment BucketStats form is
	// built only when the artifact tier needs it for the segment payload.
	// Folding the running histogram into the merger at unit exit instead of
	// per segment changes nothing: tallies are exact integer sums, so the
	// merge is commutative with the warm segments' merges.
	var stats analysis.BucketStats
	if g.width <= fusedTallyLimit {
		counts := countsPool.Get().([]uint32)
		used := counts[:2<<g.width]
		clear(used)
		g.fm.FillBucketLaneResume(g.st, flat.Records(), msg.ann.MissWords(), lane, used)
		if g.counts == nil {
			g.counts = make([]uint64, 2<<g.width)
		}
		for i, c := range used {
			g.counts[i] += uint64(c)
		}
		if artifact.Default() != nil {
			stats = countsToStats(used)
		}
		countsPool.Put(counts)
	} else {
		g.fm.FillBucketLaneResume(g.st, flat.Records(), msg.ann.MissWords(), lane, nil)
		stats = tallyLane(lane, msg.ann.MissWords(), segN)
		g.merger.Merge(stats)
	}
	end := msg.start + uint64(segN)
	g.stAt = end
	artifact.Save(artifact.KindBucketStream, bucketSegKey(spec, budget, predKey, g.geom, grid, msg.idx), func() []byte {
		bs := &BucketStream{lane: lane, n: segN, misses: msg.ann.misses, stats: stats}
		return marshalBucketStream(bs)
	})
	if end < budget {
		artifact.Save(artifact.KindCheckpoint, geomCkptKey(spec, budget, predKey, g.geom, grid, end), func() []byte {
			return MarshalCheckpoint(Checkpoint{Branch: end, Misses: cumStart + msg.ann.misses, State: g.st.MarshalState()})
		})
	}
	streamSegLive.Add(1)
	return nil
}

// annSegFromDisk loads one segment's annotated stream from the artifact
// tier, accepting only the exact segment length and the same state-lane
// presence the live walk would produce.
func annSegFromDisk(spec workload.Spec, budget uint64, predKey, grid string, idx, segN int, wantState bool) *AnnotatedStream {
	ann, _ := artifact.Load(artifact.KindAnnotatedStream, annSegKey(spec, budget, predKey, grid, idx), unmarshalAnnotatedStream,
		func(ann *AnnotatedStream) bool { return ann.n == segN && ann.HasState() == wantState })
	return ann
}

// bucketSegFromDisk loads one segment's bucket stream for a geometry,
// cross-checked against the segment's annotated stream exactly like the
// monolithic disk path.
func bucketSegFromDisk(spec workload.Spec, budget uint64, predKey, geom, grid string, idx int, ann *AnnotatedStream) *BucketStream {
	bs, _ := artifact.Load(artifact.KindBucketStream, bucketSegKey(spec, budget, predKey, geom, grid, idx), unmarshalBucketStream, ann.matches)
	return bs
}

// restorePredCkpt revives the predictor from the boundary checkpoint at
// branch position pos, validating the checkpoint's position and cumulative
// miss count against the unit's own running totals before handing the state
// to the predictor codec. Any mismatch drops the checkpoint.
func restorePredCkpt(ck predictor.Checkpointer, spec workload.Spec, budget uint64, predKey, grid string, pos, cum uint64) bool {
	_, ok := artifact.Load(artifact.KindCheckpoint, predCkptKey(spec, budget, predKey, grid, pos), UnmarshalCheckpoint,
		func(c Checkpoint) bool { return c.Branch == pos && c.Misses == cum && ck.RestoreState(c.State) == nil })
	return ok
}

// restoreGeomCkpt revives one geometry's factor state from the boundary
// checkpoint at branch position pos, with the same cross-checks.
func restoreGeomCkpt(fm core.Resumable, spec workload.Spec, budget uint64, predKey, geom, grid string, pos, cum uint64) (core.FactorState, bool) {
	var st core.FactorState
	_, ok := artifact.Load(artifact.KindCheckpoint, geomCkptKey(spec, budget, predKey, geom, grid, pos), UnmarshalCheckpoint,
		func(c Checkpoint) bool {
			if c.Branch != pos || c.Misses != cum {
				return false
			}
			var err error
			st, err = fm.RestoreFactorState(c.State)
			return err == nil
		})
	return st, ok
}
