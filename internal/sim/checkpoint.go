package sim

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"branchconf/internal/artifact"
	"branchconf/internal/workload"
)

// Checkpoint is the resumable walk state at a streaming segment boundary:
// the branch position the walk paused at, the cumulative mispredict count
// up to that position, and the opaque serialized state of the paused
// component — a predictor.Checkpointer's training state on the annotation
// side, a core.FactorState on the tally side. The engine validates Branch
// and Misses against the unit's own running totals before handing State to
// the component codec, so a checkpoint from a different boundary (or a
// stale format) can never be spliced into a walk.
type Checkpoint struct {
	Branch uint64
	Misses uint64
	State  []byte
}

// MarshalCheckpoint serializes a checkpoint: branch position, cumulative
// misses, and the length-prefixed state blob, all little-endian.
func MarshalCheckpoint(ck Checkpoint) []byte {
	out := make([]byte, 0, 24+len(ck.State))
	out = binary.LittleEndian.AppendUint64(out, ck.Branch)
	out = binary.LittleEndian.AppendUint64(out, ck.Misses)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(ck.State)))
	return append(out, ck.State...)
}

// UnmarshalCheckpoint decodes and validates a MarshalCheckpoint payload.
// Like the other stream codecs it fails closed: truncation, a state length
// that disagrees with the payload, trailing bytes, and misses exceeding the
// branch position are all rejected. The inner State blob is validated by
// its owner on restore.
func UnmarshalCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < 24 {
		return Checkpoint{}, fmt.Errorf("sim: checkpoint truncated at %d bytes", len(data))
	}
	ck := Checkpoint{
		Branch: binary.LittleEndian.Uint64(data),
		Misses: binary.LittleEndian.Uint64(data[8:]),
	}
	stateLen := binary.LittleEndian.Uint64(data[16:])
	rest := data[24:]
	if uint64(len(rest)) != stateLen {
		return Checkpoint{}, fmt.Errorf("sim: checkpoint state length %d disagrees with %d payload bytes", stateLen, len(rest))
	}
	if ck.Misses > ck.Branch {
		return Checkpoint{}, fmt.Errorf("sim: checkpoint misses %d exceed branch position %d", ck.Misses, ck.Branch)
	}
	ck.State = make([]byte, stateLen)
	copy(ck.State, rest)
	return ck, nil
}

// Segment-indexed artifact keys. A streaming unit's per-segment payloads
// reuse the monolithic key grammar with the unit's segment grid and the
// segment index (or the boundary branch position, for checkpoints)
// appended, so a segmented run never aliases a monolithic artifact and two
// grids never alias each other.

// segGridScheme versions the grid part of segment keys. Scheme 2 cuts the
// fixed-size grid at every horizon of a one-walk sweep; stores written
// under scheme 1 (no cuts) miss once and rebuild.
const segGridScheme = 2

// segGrid names a unit's segment layout: the segment size plus the
// horizons that cut it. Segment indices are only meaningful within one
// grid, so every segment and checkpoint key carries it.
func segGrid(segSize uint64, horizons []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid%d|segsz=%d|cuts=", segGridScheme, segSize)
	for i, h := range horizons {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(h, 10))
	}
	return b.String()
}

// annSegKey keys one segment's annotated stream.
func annSegKey(spec workload.Spec, n uint64, predKey, grid string, seg int) string {
	return fmt.Sprintf("ann|v%d|%s|n=%d|pred=%s|%s|seg=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, grid, seg)
}

// bucketSegKey keys one segment's bucket stream for a geometry.
func bucketSegKey(spec workload.Spec, n uint64, predKey, geom, grid string, seg int) string {
	return fmt.Sprintf("bucket|v%d|%s|n=%d|pred=%s|geom=%s|%s|seg=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, geom, grid, seg)
}

// predCkptKey keys the predictor checkpoint at boundary branch position b.
func predCkptKey(spec workload.Spec, n uint64, predKey, grid string, b uint64) string {
	return fmt.Sprintf("ckpt|v%d|%s|n=%d|pred=%s|%s|b=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, grid, b)
}

// geomCkptKey keys a geometry's factor-walk checkpoint at boundary b.
func geomCkptKey(spec workload.Spec, n uint64, predKey, geom, grid string, b uint64) string {
	return fmt.Sprintf("ckpt|v%d|%s|n=%d|pred=%s|geom=%s|%s|b=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, geom, grid, b)
}
