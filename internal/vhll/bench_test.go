package vhll

import (
	"testing"

	"ipin/internal/hll"
)

func BenchmarkAddReverseStream(b *testing.B) {
	s := MustNew(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Reverse-chronological arrival, 64k distinct items.
		s.AddHash(hll.Hash64(uint64(i%65536)), int64(1<<40-i))
	}
}

func BenchmarkMergeWindow(b *testing.B) {
	src := MustNew(9)
	for i := 0; i < 4096; i++ {
		src.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	dst := MustNew(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.MergeWindow(src, 900000, 80000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddHashBatch(b *testing.B) {
	s := MustNew(9)
	const batch = 256
	hashes := make([]uint64, batch)
	ats := make([]int64, batch)
	for i := range hashes {
		hashes[i] = hll.Hash64(uint64(i % 65536))
	}
	at := int64(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := range ats {
			at--
			ats[j] = at
		}
		s.AddHashBatch(hashes, ats)
	}
}

func BenchmarkMerge(b *testing.B) {
	// Steady-state union: dst has already adopted src's content, so every
	// iteration re-merges in place — the shape of the incremental fold's
	// repeated block stitching.
	src := MustNew(9)
	for i := 0; i < 4096; i++ {
		src.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	dst := MustNew(9)
	if err := dst.Merge(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateWindow(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < 100000; i++ {
		s.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.EstimateWindow(900000, 50000)
	}
}

func BenchmarkCollapse(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < 100000; i++ {
		s.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Collapse()
	}
}

// codecBenchSketches are the codec benchmarks' inputs: a sparse sketch
// shaped like a chunk's block-local sketch (a few populated cells, the
// encoder's sorted path) and a dense one (every cell populated, the
// slot-map scan).
func codecBenchSketches() []namedSketch {
	dense := MustNew(9)
	for i := 0; i < 100000; i++ {
		dense.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	return []namedSketch{{"sparse", occupancySketch(9, 2)}, {"dense", dense}}
}

func BenchmarkAppendBinary(b *testing.B) {
	for _, c := range codecBenchSketches() {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, c.s.EncodedLenBound())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = c.s.AppendBinary(buf[:0])
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func BenchmarkUnmarshalBinary(b *testing.B) {
	for _, c := range codecBenchSketches() {
		b.Run(c.name, func(b *testing.B) {
			data := c.s.AppendBinary(nil)
			var s Sketch
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := s.UnmarshalBinary(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
