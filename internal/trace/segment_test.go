package trace

import (
	"fmt"
	"io"
	"testing"
)

// segTestSource deterministically generates n records with irregular PC
// deltas, targets and gaps, exercising the multi-byte varint paths.
type segTestSource struct {
	i, n int
	pc   uint64
}

func (s *segTestSource) Next() (Record, error) {
	if s.i >= s.n {
		return Record{}, io.EOF
	}
	i := uint64(s.i)
	s.pc += (i*2654435761)%8192 + 4
	r := Record{
		PC:     s.pc,
		Target: s.pc + (i%97)*16 - 400, // mixes forward and backward targets
		Gap:    uint32(i % 13),
		Taken:  i*i%3 == 0,
	}
	s.i++
	return r, nil
}

func collectAll(t *testing.T, src Source) []Record {
	t.Helper()
	var out []Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		out = append(out, r)
	}
}

// TestSegmenterReassembles: for a spread of segment sizes — including 1, a
// prime, the stream length and one past it — the concatenation of every
// segment's records must equal the monolithic materialization record for
// record, and the segment lengths must be exact.
func TestSegmenterReassembles(t *testing.T) {
	const n = 5000
	mono, err := Materialize(&segTestSource{n: n}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := collectAll(t, mono.Source())
	if len(want) != n {
		t.Fatalf("monolithic buffer has %d records, want %d", len(want), n)
	}
	for _, size := range []int{1, 7, 997, n, n + 1} {
		seg := NewSegmenter(&segTestSource{n: n}, size)
		var got []Record
		segs := 0
		for {
			buf, err := seg.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			if buf.Len() > size {
				t.Fatalf("size %d: segment %d holds %d records", size, segs, buf.Len())
			}
			if buf.Len() < size && (n%size != 0 || buf.Len() != size) {
				// only the final segment may be short; verified below by totals
			}
			got = append(got, collectAll(t, buf.Source())...)
			segs++
		}
		wantSegs := (n + size - 1) / size
		if segs != wantSegs {
			t.Errorf("size %d: %d segments, want %d", size, segs, wantSegs)
		}
		if len(got) != n {
			t.Fatalf("size %d: reassembled %d records, want %d", size, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size %d: record %d = %+v, want %+v", size, i, got[i], want[i])
			}
		}
		// Exhausted segmenters keep returning io.EOF.
		if _, err := seg.Next(); err != io.EOF {
			t.Errorf("size %d: post-exhaustion Next err = %v, want io.EOF", size, err)
		}
	}
}

// TestSegmenterCuts: cuts split the fixed-size grid without
// shifting it — segments end exactly at every multiple of the size and at
// every cut (duplicates, cuts on a grid boundary and a cut at the end are
// no-ops) — and the segments still reassemble the stream.
func TestSegmenterCuts(t *testing.T) {
	const n = 100
	mono, err := Materialize(&segTestSource{n: n}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := collectAll(t, mono.Source())
	seg := NewSegmenter(&segTestSource{n: n}, 30, 7, 7, 60, 75, n)
	var ends []int
	var got []Record
	for {
		buf, err := seg.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, collectAll(t, buf.Source())...)
		ends = append(ends, len(got))
	}
	if fmt.Sprint(ends) != "[7 30 60 75 90 100]" {
		t.Fatalf("segment ends %v, want [7 30 60 75 90 100]", ends)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSegmenterRecycledShortBufferReserves: a buffer born on a short cut
// segment and recycled into a full one gets the full segment's reservation
// in one allocation, the same storage a fresh buffer would get, instead of
// growing through an append chain whose dead arrays depend on which buffer
// happened to carry the cut.
func TestSegmenterRecycledShortBufferReserves(t *testing.T) {
	tr := make(Trace, 1000)
	for i := range tr {
		pc := 0x40_0000 + uint64(i%50)*4 // 3-byte records, under the 4-byte reservation
		tr[i] = Record{PC: pc, Target: pc + 32, Taken: i%2 == 0, Gap: uint32(2 + i%9)}
	}
	seg := NewSegmenter(tr.Source(), 1000, 5)
	short, err := seg.Next()
	if err != nil || short.Len() != 5 {
		t.Fatalf("first segment: %d records, err %v; want the 5-record cut", short.Len(), err)
	}
	seg.Recycle(short)
	full, err := seg.Next()
	if err != nil || full.Len() != 995 {
		t.Fatalf("second segment: %d records, err %v; want 995", full.Len(), err)
	}
	if full != short {
		t.Fatal("recycled buffer was not reused")
	}
	if got, want := cap(full.data), 4*995; got != want {
		t.Fatalf("recycled buffer capacity %d, want the %d-byte reservation", got, want)
	}
	if got := collectAll(t, full.Source()); len(got) != 995 || got[0] != tr[5] || got[994] != tr[999] {
		t.Fatalf("recycled segment replays %d records, want records 5..999", len(got))
	}
}

// TestSegmenterEmptySource: an empty stream yields io.EOF immediately, never
// a zero-length segment.
func TestSegmenterEmptySource(t *testing.T) {
	seg := NewSegmenter(&segTestSource{n: 0}, 64)
	if _, err := seg.Next(); err != io.EOF {
		t.Fatalf("Next on empty source err = %v, want io.EOF", err)
	}
}

// TestSegmenterPropagatesError: a mid-stream source error surfaces and
// poisons the segmenter.
type errorAfterSource struct {
	inner Source
	left  int
}

func (s *errorAfterSource) Next() (Record, error) {
	if s.left == 0 {
		return Record{}, fmt.Errorf("synthetic source fault")
	}
	s.left--
	return s.inner.Next()
}

func TestSegmenterPropagatesError(t *testing.T) {
	seg := NewSegmenter(&errorAfterSource{inner: &segTestSource{n: 100}, left: 10}, 8)
	if buf, err := seg.Next(); err != nil || buf.Len() != 8 {
		t.Fatalf("first segment: len=%v err=%v", buf.Len(), err)
	}
	if _, err := seg.Next(); err == nil {
		t.Fatal("source fault did not surface")
	}
	if _, err := seg.Next(); err != io.EOF {
		t.Fatalf("post-error Next err = %v, want io.EOF", err)
	}
}

// TestSegmenterBadSize: a segment size below 1 is a programming error.
func TestSegmenterBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSegmenter(_, 0) did not panic")
		}
	}()
	NewSegmenter(&segTestSource{n: 1}, 0)
}
