package exp

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// TestUnmarshalCountsFailsClosed: a model-stats payload whose header
// disagrees with its body is corruption, never a panic or a short vector —
// including a header whose count, times eight, wraps to the body length.
func TestUnmarshalCountsFailsClosed(t *testing.T) {
	counts := []uint64{7, 0, 1 << 40}
	got, err := unmarshalCounts(marshalCounts(counts))
	if err != nil || !reflect.DeepEqual(got, counts) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	header := func(n uint64, body int) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, n), make([]byte, body)...)
	}
	for name, payload := range map[string][]byte{
		"truncated header":   {1, 2, 3},
		"2^61 counts, empty": header(1<<61, 0),
		"2^61+1 counts":      header(1<<61+1, 8),
		"short body":         header(2, 8),
		"long body":          header(1, 16),
		"ragged body":        header(1, 9),
	} {
		if got, err := unmarshalCounts(payload); err == nil {
			t.Errorf("%s: accepted as %d counts", name, len(got))
		}
	}
}
