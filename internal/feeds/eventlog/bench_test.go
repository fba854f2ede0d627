package eventlog

import (
	"testing"

	"artemis/internal/feeds/feedtypes"
)

// BenchmarkEventJSONRoundTrip measures the interchange cost per event:
// one AppendRecord into a reused buffer (the recorder's hot path) and one
// decode into a reused batch (the replay path). Both are gated at
// zero-and-a-bit allocs.
func BenchmarkEventJSONRoundTrip(b *testing.B) {
	evs := sampleEvents()
	rec := Record{Seq: 42, Event: evs[0]}
	buf := AppendRecord(nil, rec)

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendRecord(buf[:0], rec)
		}
	})
	b.Run("decode", func(b *testing.B) {
		var d decoder
		var batch feedtypes.Batch
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch.Reset()
			if _, err := d.batch(buf, &batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
