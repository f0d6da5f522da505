package vhll

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ipin/internal/hll"
)

func TestSketchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := MustNew(7)
	cur := int64(1 << 30)
	for i := 0; i < 2000; i++ {
		cur -= int64(rng.Intn(5))
		s.AddHash(hll.Hash64(uint64(rng.Intn(500))), cur)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Precision() != s.Precision() || got.EntryCount() != s.EntryCount() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := 0; i < s.NumCells(); i++ {
		a, b := s.Cell(i), got.Cell(i)
		if len(a) != len(b) {
			t.Fatalf("cell %d length %d != %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("cell %d entry %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
	if got.Estimate() != s.Estimate() {
		t.Fatal("estimate changed across round trip")
	}
	if got.EstimateWindow(cur, 1000) != s.EstimateWindow(cur, 1000) {
		t.Fatal("windowed estimate changed across round trip")
	}
}

func TestSketchRoundTripNegativeTimes(t *testing.T) {
	// The sliding-window adapter stores negated timestamps; the varint
	// encoding must handle them.
	s := MustNew(5)
	s.AddHash(hll.Hash64(1), -100)
	s.AddHash(hll.Hash64(2), -200)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != s.Estimate() {
		t.Fatal("estimate changed")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil accepted")
	}
	if err := s.UnmarshalBinary([]byte("WRONGMAGIC")); err == nil {
		t.Error("bad magic accepted")
	}
	if err := s.UnmarshalBinary([]byte{'V', 'H', 'L', '1', 99}); err == nil {
		t.Error("bad precision accepted")
	}
	// Valid header but truncated body.
	src := MustNew(5)
	src.AddHash(hll.Hash64(7), 50)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Error("truncated body accepted")
	}
	if err := s.UnmarshalBinary(append(data, 0xAB)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUnmarshalRejectsInvariantViolations(t *testing.T) {
	// Hand-craft a payload whose cell breaks the staircase (descending
	// rank): magic, precision 4, cell 0 with two entries, rest empty.
	payload := []byte{'V', 'H', 'L', '1', 4,
		2,    // cell 0: two entries
		2, 9, // entry (t=1 zigzag→2? varint(1)=0x02) rank 9
		2, 3, // entry (t=2) rank 3 < 9: violates strict ascent
	}
	for i := 0; i < 15; i++ {
		payload = append(payload, 0) // 15 empty cells
	}
	var s Sketch
	if err := s.UnmarshalBinary(payload); err == nil {
		t.Fatal("staircase violation accepted")
	}
}

// namedSketch is one differential-test input.
type namedSketch struct {
	name string
	s    *Sketch
}

// boundarySketches returns the sketches the production codec is held to
// the reference on: the final, side, cloned and merged sketches of every
// golden-suite stream, and for every precision 4–16 sketches with 0, 1,
// sortedWalkMax and sortedWalkMax+1 populated cells — either side of the
// encoder's switch from sorting the occupied index to scanning the slot
// map — and with every cell populated. Cells are first touched in random
// order, so region order differs from cell order, and staircases mix
// negative, large and repeated timestamps with the maximal rank.
func boundarySketches() []namedSketch {
	var out []namedSketch
	for _, gc := range goldenCases {
		s, other, _, _ := driveGoldenCase(gc)
		merged := s.Clone()
		if err := merged.Merge(other); err != nil {
			panic(err)
		}
		out = append(out,
			namedSketch{gc.Name, s},
			namedSketch{gc.Name + "/other", other},
			namedSketch{gc.Name + "/clone", s.Clone()},
			namedSketch{gc.Name + "/merged", merged})
	}
	for p := hll.MinPrecision; p <= 16; p++ {
		beta := 1 << p
		t := sortedWalkMax(beta)
		for _, n := range []int{0, 1, t, t + 1, beta} {
			if n > beta || (n == 1 && t == 1) || (n == t+1 && t+1 == beta) {
				continue
			}
			out = append(out, namedSketch{fmt.Sprintf("p%d/cells%d", p, n), occupancySketch(p, n)})
		}
	}
	return out
}

// occupancySketch builds a precision-p sketch with exactly n populated
// cells, first touched in random order.
func occupancySketch(p, n int) *Sketch {
	rng := rand.New(rand.NewSource(int64(p*100003 + n)))
	s := MustNew(p)
	maxRank := 64 - p + 1
	for _, cell := range rng.Perm(1 << p)[:n] {
		at := rng.Int63n(1<<41) - 1<<40
		for e := rng.Intn(4); e >= 0; e-- {
			rank := uint8(rng.Intn(maxRank) + 1)
			if rng.Intn(8) == 0 {
				rank = uint8(maxRank)
			}
			s.AddHash(goldenHash(p, uint32(cell), rank), at)
			if rng.Intn(4) != 0 {
				at += int64(rng.Intn(1 << uint(rng.Intn(40)+1)))
			}
		}
	}
	if got := len(s.occupied); got != n {
		panic(fmt.Sprintf("occupancy sketch p=%d: %d populated cells, want %d", p, got, n))
	}
	return s
}

// TestAppendBinaryMatchesReference: the populated-cell encoder emits the
// reference encoder's bytes for every boundary sketch, appends after an
// existing prefix without touching it, and the two-pass decoder rebuilds
// exactly the reference decoder's state from them.
func TestAppendBinaryMatchesReference(t *testing.T) {
	for _, c := range boundarySketches() {
		want := refMarshalBinary(c.s)
		got := c.s.AppendBinary(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendBinary differs from the reference encoding (%d vs %d bytes)", c.name, len(got), len(want))
		}
		if n := c.s.EncodedLenBound(); len(got) > n {
			t.Fatalf("%s: encoding of %d bytes exceeds EncodedLenBound %d", c.name, len(got), n)
		}
		prefixed := c.s.AppendBinary([]byte("xy"))
		if string(prefixed[:2]) != "xy" || !bytes.Equal(prefixed[2:], want) {
			t.Fatalf("%s: AppendBinary after a prefix is not prefix+encoding", c.name)
		}
		var dec Sketch
		if err := dec.UnmarshalBinary(got); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		ref, err := refUnmarshalBinary(got)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", c.name, err)
		}
		if !reflect.DeepEqual(&dec, ref) {
			t.Fatalf("%s: decoded state differs from the reference decoder's", c.name)
		}
	}
}

// TestUnmarshalLeavesTargetOnError: a rejected payload must not clobber
// the sketch it was decoded into.
func TestUnmarshalLeavesTargetOnError(t *testing.T) {
	s := occupancySketch(6, 5)
	before := s.AppendBinary(nil)
	bad := append([]byte(nil), before...)
	bad = append(bad, 0) // trailing byte
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if !bytes.Equal(s.AppendBinary(nil), before) {
		t.Fatal("failed decode modified the target sketch")
	}
}

// TestCodecAllocs pins the codec's allocation contract (no race
// instrumentation): AppendBinary into a buffer with EncodedLenBound of
// spare capacity allocates nothing, on both encoder paths and for an
// empty sketch, and UnmarshalBinary allocates only the decoded sketch's
// own storage — the slot map, plus arena, region table and occupied
// index when any cell is populated.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cases := []struct {
		name   string
		s      *Sketch
		decode float64
	}{
		{"empty", MustNew(9), 1},
		{"sorted", occupancySketch(9, 3), 4},
		{"walked", occupancySketch(9, 200), 4},
	}
	for _, c := range cases {
		buf := make([]byte, 0, c.s.EncodedLenBound())
		if got := testing.AllocsPerRun(200, func() { buf = c.s.AppendBinary(buf[:0]) }); got != 0 {
			t.Errorf("%s: AppendBinary into a sized buffer: %.1f allocs, want 0", c.name, got)
		}
		data := c.s.AppendBinary(nil)
		var dec Sketch
		if got := testing.AllocsPerRun(200, func() {
			if err := dec.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
		}); got != c.decode {
			t.Errorf("%s: UnmarshalBinary: %.1f allocs, want %.0f", c.name, got, c.decode)
		}
	}
}
