package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"branchconf/internal/bitvec"
)

// ReplayBuffer is a compact, immutable, in-memory materialization of a
// branch trace, built for the materialize-once / replay-many pattern of the
// single-pass simulation engine: generating a synthetic workload walks a
// program model and burns RNG draws per branch, while replaying a
// materialized trace is a tight varint decode.
//
// The encoding mirrors the on-disk BCT1 codec: per record a zigzag-varint
// PC delta from the previous PC, a zigzag-varint PC-relative target, and a
// varint gap, which keeps typical records to 3-5 bytes. Outcomes live in a
// separate bit vector (one bit per branch), so a one-million-branch
// benchmark trace costs roughly 4-5 MB instead of the 24 MB of []Record.
//
// A fully built buffer is read-only; any number of Sources may replay it
// concurrently, each holding its own cursor.
type ReplayBuffer struct {
	data  []byte        // varint-encoded (pcDelta, targetDelta, gap) stream
	taken bitvec.Vector // outcome bit per record
	n     int
}

// Materialize drains src into a replay buffer. A limit of 0 means
// unbounded; otherwise at most limit records are read. Like Collect, a
// clean io.EOF ends materialization without error.
func Materialize(src Source, limit int) (*ReplayBuffer, error) {
	return MaterializeInto(&ReplayBuffer{}, src, limit)
}

// MaterializeInto is Materialize reusing b's storage: the buffer is reset
// to empty first and its byte and outcome-bit capacity carried over. The
// streaming engine recycles consumed segment buffers through here
// (Segmenter.Recycle), so a long walk allocates a couple of buffers total
// instead of one per segment. b must not be shared: reuse restarts the
// read-only contract a fully built buffer otherwise has.
func MaterializeInto(b *ReplayBuffer, src Source, limit int) (*ReplayBuffer, error) {
	b.data = b.data[:0]
	b.taken.Reset()
	b.n = 0
	if limit > 0 && cap(b.data) < limit*4 {
		// Reserve for typical 3-5 byte records up front: a bounded
		// materialization otherwise pays a doubling chain of dead arrays
		// roughly the size of the final buffer. A recycled buffer too small
		// for this limit (it last held a short segment) is replaced the
		// same way rather than grown through that chain.
		b.data = make([]byte, 0, limit*4)
	}
	var prevPC uint64
	var buf [3 * binary.MaxVarintLen64]byte
	for limit == 0 || b.n < limit {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: materializing record %d: %w", b.n, err)
		}
		n := binary.PutUvarint(buf[:], zigzag(int64(r.PC-prevPC)))
		n += binary.PutUvarint(buf[n:], zigzag(int64(r.Target-r.PC)))
		n += binary.PutUvarint(buf[n:], uint64(r.Gap))
		b.data = append(b.data, buf[:n]...)
		b.taken.Append(r.Taken)
		prevPC = r.PC
		b.n++
	}
	return b, nil
}

// Len returns the number of materialized records.
func (b *ReplayBuffer) Len() int { return b.n }

// Footprint returns the buffer's payload size in bytes: the encoded record
// stream plus the packed outcome bits.
func (b *ReplayBuffer) Footprint() uint64 {
	return uint64(len(b.data)) + b.taken.Bytes()
}

// Source returns a Source replaying the buffer from the beginning. Each
// call returns an independent cursor; concurrent replays are safe.
func (b *ReplayBuffer) Source() Source { return &replaySource{buf: b} }

type replaySource struct {
	buf     *ReplayBuffer
	off     int // byte offset into buf.data
	pos     int // record index
	prevPC  uint64
	takenWd uint64 // cached outcome word covering records [pos&^63, pos|63]
}

// Next decodes one record. The one- and two-byte varint paths — which
// dominate delta streams — are decoded inline; longer encodings take the
// uvarintSlow fallback. Outcome bits are fetched one 64-bit word at a time.
func (s *replaySource) Next() (Record, error) {
	if s.pos >= s.buf.n {
		return Record{}, io.EOF
	}
	data, off := s.buf.data, s.off
	var head, tgt, gap uint64
	if b0 := data[off]; b0 < 0x80 {
		head, off = uint64(b0), off+1
	} else if b1 := data[off+1]; b1 < 0x80 {
		head, off = uint64(b0&0x7f)|uint64(b1)<<7, off+2
	} else {
		head, off = uvarintSlow(data, off)
	}
	if b0 := data[off]; b0 < 0x80 {
		tgt, off = uint64(b0), off+1
	} else if b1 := data[off+1]; b1 < 0x80 {
		tgt, off = uint64(b0&0x7f)|uint64(b1)<<7, off+2
	} else {
		tgt, off = uvarintSlow(data, off)
	}
	if b0 := data[off]; b0 < 0x80 {
		gap, off = uint64(b0), off+1
	} else if b1 := data[off+1]; b1 < 0x80 {
		gap, off = uint64(b0&0x7f)|uint64(b1)<<7, off+2
	} else {
		gap, off = uvarintSlow(data, off)
	}
	s.off = off
	if s.pos&63 == 0 {
		s.takenWd = s.buf.taken.Word(s.pos >> 6)
	}
	var r Record
	r.PC = s.prevPC + uint64(unzigzag(head))
	r.Target = r.PC + uint64(unzigzag(tgt))
	r.Gap = uint32(gap)
	r.Taken = s.takenWd>>uint(s.pos&63)&1 == 1
	s.prevPC = r.PC
	s.pos++
	return r, nil
}

// uvarintSlow decodes varint encodings of three or more bytes.
func uvarintSlow(data []byte, off int) (uint64, int) {
	v, n := binary.Uvarint(data[off:])
	return v, off + n
}
