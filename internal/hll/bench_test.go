package hll

import "testing"

func BenchmarkAdd(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < 100000; i++ {
		s.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate()
	}
}

func BenchmarkMerge(b *testing.B) {
	x, y := MustNew(9), MustNew(9)
	for i := 0; i < 50000; i++ {
		x.Add(uint64(i))
		y.Add(uint64(i + 25000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Merge into a clone so the target does not saturate.
		_ = x.Clone().Merge(y)
	}
}

// BenchmarkUnionEstimate is the greedy gain kernel: the estimate of a
// union without materializing it (compare BenchmarkMerge plus
// BenchmarkEstimate).
func BenchmarkUnionEstimate(b *testing.B) {
	x, y := MustNew(9), MustNew(9)
	for i := 0; i < 50000; i++ {
		x.Add(uint64(i))
		y.Add(uint64(i + 25000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _ = x.UnionEstimate(y)
	}
}

var sink float64

func BenchmarkHash64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Hash64(uint64(i))
	}
	benchSink = acc
}

var benchSink uint64
