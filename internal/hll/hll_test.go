package hll

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidatesPrecision(t *testing.T) {
	if _, err := New(MinPrecision - 1); err == nil {
		t.Error("precision below minimum accepted")
	}
	if _, err := New(MaxPrecision + 1); err == nil {
		t.Error("precision above maximum accepted")
	}
	s, err := New(9)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCells() != 512 || s.Precision() != 9 {
		t.Fatalf("NumCells=%d Precision=%d", s.NumCells(), s.Precision())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestSplitProperties(t *testing.T) {
	for _, p := range []int{4, 9, 14} {
		maxRank := uint8(64 - p + 1)
		for x := uint64(0); x < 4096; x++ {
			cell, rank := Split(Hash64(x), p)
			if cell >= uint32(1)<<p {
				t.Fatalf("p=%d x=%d: cell %d out of range", p, x, cell)
			}
			if rank < 1 || rank > maxRank {
				t.Fatalf("p=%d x=%d: rank %d out of range [1,%d]", p, x, rank, maxRank)
			}
		}
	}
	// An all-zero remainder hits the cap exactly.
	if _, rank := Split(0, 9); rank != 64-9+1 {
		t.Fatalf("zero-hash rank = %d, want %d", rank, 64-9+1)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// Standard error is ~1.04/sqrt(beta); allow 5 sigma.
	cases := []struct {
		precision int
		n         int
	}{
		{9, 100},
		{9, 1000},
		{9, 50000},
		{7, 10000},
		{12, 100000},
	}
	for _, tc := range cases {
		s := MustNew(tc.precision)
		for i := 0; i < tc.n; i++ {
			s.Add(uint64(i))
		}
		est := s.Estimate()
		tol := 5 * 1.04 / math.Sqrt(float64(s.NumCells()))
		if rel := math.Abs(est-float64(tc.n)) / float64(tc.n); rel > tol {
			t.Errorf("p=%d n=%d: estimate %.1f (rel err %.3f > tol %.3f)", tc.precision, tc.n, est, rel, tol)
		}
	}
}

func TestEstimateSmallRangeIsNearExact(t *testing.T) {
	// Linear counting keeps tiny cardinalities nearly exact.
	s := MustNew(9)
	for i := 0; i < 10; i++ {
		s.Add(uint64(i * 7919))
	}
	if est := s.Estimate(); math.Abs(est-10) > 1.5 {
		t.Errorf("estimate %.2f for 10 items", est)
	}
}

func TestEmptyEstimateIsZero(t *testing.T) {
	if est := MustNew(9).Estimate(); est != 0 {
		t.Fatalf("empty sketch estimate %.3f, want 0", est)
	}
}

func TestDuplicatesDoNotChangeSketch(t *testing.T) {
	a := MustNew(9)
	for i := 0; i < 1000; i++ {
		a.Add(uint64(i))
	}
	before := a.Estimate()
	for i := 0; i < 1000; i++ {
		a.Add(uint64(i))
	}
	if after := a.Estimate(); after != before {
		t.Fatalf("duplicates changed estimate %.3f → %.3f", before, after)
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, u := MustNew(9), MustNew(9), MustNew(9)
	for i := 0; i < 5000; i++ {
		a.Add(uint64(i))
		u.Add(uint64(i))
	}
	for i := 2500; i < 7500; i++ {
		b.Add(uint64(i))
		u.Add(uint64(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Estimate(), u.Estimate(); got != want {
		t.Fatalf("merged estimate %.3f != union estimate %.3f", got, want)
	}
}

func TestMergePrecisionMismatch(t *testing.T) {
	if err := MustNew(9).Merge(MustNew(10)); err == nil {
		t.Fatal("precision mismatch not rejected")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := MustNew(6)
	a.Add(1)
	c := a.Clone()
	c.Add(2)
	c.Add(3)
	if a.Estimate() == c.Estimate() {
		t.Fatal("clone shares registers")
	}
}

func TestResetAndMemory(t *testing.T) {
	s := MustNew(6)
	for i := 0; i < 100; i++ {
		s.Add(uint64(i))
	}
	s.Reset()
	if est := s.Estimate(); est != 0 {
		t.Fatalf("estimate %.3f after Reset", est)
	}
	if got := s.MemoryBytes(); got != 64 {
		t.Fatalf("MemoryBytes = %d, want 64", got)
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(42) != Hash64(42) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(42) == Hash64(43) {
		t.Fatal("Hash64(42) == Hash64(43)")
	}
	// Golden value pins the hash across refactors: the sketches and every
	// experiment table depend on it.
	if got := Hash64(1); got != 0x910a2dec89025cc1 {
		t.Fatalf("Hash64(1) = %#x changed; sketches are no longer comparable across versions", got)
	}
}

func TestHashString(t *testing.T) {
	if HashString("alice") == HashString("bob") {
		t.Fatal("string hash collision on trivial input")
	}
	if HashString("alice") != HashString("alice") {
		t.Fatal("HashString not deterministic")
	}
}

// Property: merge is commutative and idempotent at the register level.
func TestMergePropertyQuick(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a1, b1 := MustNew(6), MustNew(6)
		a2, b2 := MustNew(6), MustNew(6)
		for _, x := range xs {
			a1.Add(uint64(x))
			a2.Add(uint64(x))
		}
		for _, y := range ys {
			b1.Add(uint64(y))
			b2.Add(uint64(y))
		}
		_ = a1.Merge(b1) // a ∪ b
		_ = b2.Merge(a2) // b ∪ a
		if a1.Estimate() != b2.Estimate() {
			return false
		}
		// Idempotence: merging again changes nothing.
		before := a1.Estimate()
		_ = a1.Merge(b1)
		return a1.Estimate() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: registers never decrease as items are added (the estimator
// itself is allowed a small discontinuity where linear counting hands
// over to the raw formula, so the register level is the right invariant),
// and the estimate never drifts far below its running maximum.
func TestRegistersMonotoneQuick(t *testing.T) {
	f := func(xs []uint32) bool {
		s := MustNew(6)
		prev := make([]uint8, s.NumCells())
		peak := 0.0
		for _, x := range xs {
			s.Add(uint64(x))
			for c := uint32(0); c < uint32(s.NumCells()); c++ {
				if s.Register(c) < prev[c] {
					return false
				}
				prev[c] = s.Register(c)
			}
			est := s.Estimate()
			if est < 0.8*peak-1 {
				return false
			}
			if est > peak {
				peak = est
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionEstimateBitIdentical: the allocation-free union estimate is
// bit for bit the Clone+Merge+Estimate result, across precisions, fill
// levels from empty through the linear-counting handover to saturated,
// and both argument orders.
func TestUnionEstimateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		p := MinPrecision + rng.Intn(MaxPrecision-MinPrecision-5)
		a, b := MustNew(p), MustNew(p)
		for _, s := range []*Sketch{a, b} {
			n := rng.Intn(1 << uint(p+rng.Intn(4)))
			for i := 0; i < n; i++ {
				s.AddHash(rng.Uint64())
			}
		}
		for _, pair := range [][2]*Sketch{{a, b}, {b, a}, {a, a}} {
			x, y := pair[0], pair[1]
			want := x.Clone()
			_ = want.Merge(y)
			got, err := x.UnionEstimate(y)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want.Estimate()) {
				t.Fatalf("trial %d (p=%d): UnionEstimate %v, Clone+Merge+Estimate %v", trial, p, got, want.Estimate())
			}
		}
	}
	if _, err := MustNew(5).UnionEstimate(MustNew(6)); err == nil {
		t.Fatal("precision mismatch accepted")
	}
}
