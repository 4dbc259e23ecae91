package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync/atomic"
)

// runDigests counts HashRun calls, so a test can pin which paths hash
// tallies and which reuse a stored digest.
var runDigests atomic.Uint64

// RunDigestCount reports how many per-run digests HashRun has computed in
// this process. It is a test hook: a resident re-run that re-uses stored
// digests leaves it unchanged.
func RunDigestCount() uint64 { return runDigests.Load() }

// HashRun returns the canonical content digest of one run's bucket
// tallies: its (bucket, events, misses) triples in ascending bucket order,
// framed by the triple count. Two runs digest equal iff they carry
// identical integer statistics, regardless of map iteration order. The
// cost is a sort of the run's buckets plus a SHA-256 pass over 24 bytes
// per bucket — far from free on large tallies, which is why resident
// suite passes compute it once and keep it (exp.Pass).
func HashRun(bs BucketStats) [sha256.Size]byte {
	runDigests.Add(1)
	h := sha256.New()
	// One chunk buffer (at most 1024 triples) amortises the hash-write
	// call overhead.
	buf := make([]byte, 0, min(8+24*len(bs), 24*1024))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(bs)))
	buckets := make([]uint64, 0, len(bs))
	for b := range bs {
		buckets = append(buckets, b)
	}
	slices.Sort(buckets)
	for _, b := range buckets {
		if len(buf)+24 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		t := bs[b]
		buf = binary.LittleEndian.AppendUint64(buf, b)
		buf = binary.LittleEndian.AppendUint64(buf, t.Events)
		buf = binary.LittleEndian.AppendUint64(buf, t.Misses)
	}
	h.Write(buf)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// HashRuns returns the canonical content hash of a set of per-run bucket
// tallies: SHA-256 over the run count followed by each run's HashRun
// digest, so run order, run boundaries and empty runs all change it. The
// hash keys any artefact that is a pure function of the tallies — notably
// the sorted confidence curves the experiment layer persists.
func HashRuns(runs []BucketStats) [sha256.Size]byte {
	digests := make([][sha256.Size]byte, len(runs))
	for i, bs := range runs {
		digests[i] = HashRun(bs)
	}
	return CombineRunDigests(digests)
}

// CombineRunDigests returns HashRuns of the runs whose HashRun digests are
// digests, in order, without touching their tallies.
func CombineRunDigests(digests [][sha256.Size]byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(digests))))
	for i := range digests {
		h.Write(digests[i][:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
