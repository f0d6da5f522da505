package vhll

import (
	"bytes"
	"reflect"
	"testing"

	"ipin/internal/hll"
)

// FuzzUnmarshalBinary is differential: on arbitrary bytes the two-pass
// decoder and the reference decoder (codec_ref_test.go) must both accept
// or both reject, and accepted input must decode to equal state — the
// same in-memory layout, a clean invariant, and the same re-encoding
// from AppendBinary and the reference encoder.
func FuzzUnmarshalBinary(f *testing.F) {
	// Seed with a few valid encodings.
	for _, n := range []int{0, 3, 50} {
		s := MustNew(4)
		cur := int64(1000)
		for i := 0; i < n; i++ {
			cur--
			s.AddHash(hll.Hash64(uint64(i)), cur)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The differential tests' boundary sketches: golden-suite streams and
	// occupancies either side of the encoder's sort/scan switch. Seeds
	// stop at precision 10: every larger payload carries 2 KiB to 64 KiB
	// of count bytes, which cut the fuzzer's exec rate severalfold, and
	// TestAppendBinaryMatchesReference covers precisions up to 16.
	for _, c := range boundarySketches() {
		if c.s.Precision() <= 10 {
			f.Add(c.s.AppendBinary(nil))
		}
	}
	// Arena-shaped edge cases: the flat layout's interesting boundaries
	// are long empty-cell runs, one cell holding a maximal staircase, and
	// runs of rank-capped entries.
	{
		// Single full cell: ascending time + ascending rank never
		// dominates, building the longest legal staircase (ranks
		// 1..64−p+1), with every other cell empty.
		s := MustNew(4)
		for r := 1; r <= 61; r++ {
			s.AddHash(goldenHash(4, 7, uint8(r)), int64(r))
		}
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	{
		// Max-rank runs: several cells pinned at the rank cap.
		s := MustNew(4)
		for c := uint32(0); c < 16; c += 2 {
			s.AddHash(goldenHash(4, c, 61), int64(100-c))
		}
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Hostile cell count just above the staircase maximum: must be
	// rejected before the decoder materializes it.
	f.Add(append([]byte{'V', 'H', 'L', '1', 4}, 0x81, 0x02)) // cell 0 count = 257
	f.Add([]byte("VHL1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Sketch
		err := got.UnmarshalBinary(data)
		want, refErr := refUnmarshalBinary(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree: UnmarshalBinary %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if err := got.CheckInvariant(); err != nil {
			t.Fatalf("accepted payload violates invariant: %v", err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatal("decoded state differs from the reference decoder's")
		}
		out := got.AppendBinary(nil)
		if !bytes.Equal(out, refMarshalBinary(want)) {
			t.Fatal("re-encodings differ")
		}
		var again Sketch
		if err := again.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(&again, &got) {
			t.Fatal("state changed across re-encode")
		}
	})
}
