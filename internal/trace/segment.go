package trace

import (
	"fmt"
	"io"
)

// Segmenter cuts a branch stream into fixed-size replay-buffer segments for
// the streaming engine: long-horizon runs materialize one bounded segment
// at a time instead of the whole trace, so resident memory is a function of
// the segment size, never the horizon.
//
// Segments are self-contained: Materialize starts each buffer's PC-delta
// chain from zero, so a segment decodes to exactly the records the
// monolithic buffer would hold at the same offsets (pinned by
// TestSegmenterReassembles). Concatenating every segment's records
// reproduces the unsegmented stream bit for bit.
type Segmenter struct {
	src   Source
	size  int
	cuts  []uint64 // ascending extra boundaries not yet reached
	pos   uint64   // records emitted so far
	done  bool
	spare *ReplayBuffer
}

// NewSegmenter returns a segmenter yielding buffers of exactly size records
// (the final segment may be shorter). Optional cuts (ascending, duplicates
// allowed) add boundaries: segments then end at every multiple of size and
// at every cut, so a walk can pause exactly at each cut without shifting
// the fixed-size grid around it. It panics on size < 1: the segment size
// is structural configuration validated at the flag layer, so a bad value
// here is a programming error.
func NewSegmenter(src Source, size int, cuts ...uint64) *Segmenter {
	if size < 1 {
		panic(fmt.Sprintf("trace: segment size %d out of range [1,∞)", size))
	}
	return &Segmenter{src: src, size: size, cuts: cuts}
}

// Next materializes the next segment. It returns io.EOF once the source is
// exhausted; a short (or empty) materialization marks exhaustion, exactly
// like Materialize's own clean-EOF contract.
func (s *Segmenter) Next() (*ReplayBuffer, error) {
	if s.done {
		return nil, io.EOF
	}
	into := s.spare
	s.spare = nil
	if into == nil {
		into = &ReplayBuffer{}
	}
	want := uint64(s.size) - s.pos%uint64(s.size)
	for len(s.cuts) > 0 && s.cuts[0] <= s.pos {
		s.cuts = s.cuts[1:]
	}
	if len(s.cuts) > 0 && s.cuts[0]-s.pos < want {
		want = s.cuts[0] - s.pos
	}
	buf, err := MaterializeInto(into, s.src, int(want))
	if err != nil {
		s.done = true
		return nil, err
	}
	s.pos += uint64(buf.Len())
	if uint64(buf.Len()) < want {
		s.done = true
	}
	if buf.Len() == 0 {
		return nil, io.EOF
	}
	return buf, nil
}

// Recycle hands a consumed segment buffer back for reuse by the next
// Next call. The caller asserts nothing still reads the buffer: its
// storage is overwritten in place. Recycling is optional — segments not
// handed back are simply garbage.
func (s *Segmenter) Recycle(b *ReplayBuffer) {
	if b != nil {
		s.spare = b
	}
}
