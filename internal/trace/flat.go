package trace

// FlatView is a decoded, random-access view of a replay buffer for the
// mechanism and predictor stages of the two-stage simulation engine. Where
// a replay Source pays a varint decode per record, a flat view is one
// slice load, which matters when dozens of mechanism variants replay the
// same trace.
//
// The view holds complete records — PC, Target, Taken and Gap — because
// its consumers feed real predictors (BTFN and agree predictors read the
// target to classify backward branches) and, through the gating models,
// fetch-bandwidth accounting. The cost is flatRecordBytes per branch;
// callers that retain views should bound them (see sim.AnnotatedTier).
//
// A flat view is immutable and safe for concurrent readers.
type FlatView struct {
	recs []Record
}

// flatRecordBytes is the in-memory size of one decoded Record (8-byte PC
// and Target, bool Taken padded with the uint32 Gap to one more word).
const flatRecordBytes = 24

// Flatten decodes the buffer's record stream into a flat view.
func (b *ReplayBuffer) Flatten() *FlatView { return b.FlattenInto(nil) }

// FlattenInto decodes the buffer into v, reusing v's record storage when
// its capacity suffices; v may be nil for a fresh view. The streaming
// engine flattens every segment through one scratch view per unit, so the
// dominant 24-bytes-per-branch decode buffer is allocated once per unit
// instead of once per segment. The returned view aliases v's storage:
// records from the previous flatten are overwritten.
func (b *ReplayBuffer) FlattenInto(v *FlatView) *FlatView {
	if v == nil {
		v = &FlatView{}
	}
	if cap(v.recs) < b.n {
		v.recs = make([]Record, b.n)
	}
	v.recs = v.recs[:b.n]
	src := b.Source().(*replaySource)
	for i := 0; i < b.n; i++ {
		r, err := src.Next()
		if err != nil {
			// A fully built buffer replays exactly n records; anything else
			// is a corrupted buffer, which Materialize cannot produce.
			panic("trace: replay buffer shorter than its length")
		}
		v.recs[i] = r
	}
	return v
}

// Len returns the number of branches in the view.
func (v *FlatView) Len() int { return len(v.recs) }

// Record returns the i-th decoded record.
func (v *FlatView) Record(i int) Record { return v.recs[i] }

// Records returns the decoded record slice backing the view. The slice is
// immutable by contract — it exists so monomorphic stream kernels (the
// factored bucket-lane builders in internal/core) can walk the lanes
// without a method call per branch.
func (v *FlatView) Records() []Record { return v.recs }

// PC returns the i-th branch address.
func (v *FlatView) PC(i int) uint64 { return v.recs[i].PC }

// Taken reports the i-th resolved direction.
func (v *FlatView) Taken(i int) bool { return v.recs[i].Taken }

// Footprint returns the view's payload bytes.
func (v *FlatView) Footprint() uint64 { return uint64(len(v.recs)) * flatRecordBytes }
