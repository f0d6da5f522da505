// Package hll implements the HyperLogLog cardinality sketch of Flajolet,
// Fusy, Gandouet and Meunier (paper §3.2.1, reference [9]), from scratch on
// the standard library only.
//
// A sketch with β = 2^k cells approximates the number of distinct items
// inserted with a standard error of about 1.04/√β using β bytes of state.
// Two sketches over the same β merge by taking the cell-wise maximum, which
// is exactly the union operation the paper's influence oracle relies on
// (§4.1: "HyperLogLog sketch union requires taking the maximum at each
// bucket index").
//
// Items are 64-bit values; callers hash their domain values first (see
// Hash64). The first k bits of the hash select the cell, and the rank — the
// number of leading zeros of the remaining bits plus one — is what the cell
// stores.
package hll

import (
	"fmt"
	"math"
	"math/bits"
)

// MinPrecision and MaxPrecision bound the supported k = log2(β).
const (
	MinPrecision = 4
	MaxPrecision = 18
)

// Sketch is a HyperLogLog counter. The zero value is unusable; construct
// with New.
type Sketch struct {
	precision uint8   // k
	registers []uint8 // β = 2^k cells, each the max rank seen
}

// New returns an empty sketch with 2^precision cells. It returns an error
// if precision is outside [MinPrecision, MaxPrecision].
func New(precision int) (*Sketch, error) {
	if precision < MinPrecision || precision > MaxPrecision {
		return nil, fmt.Errorf("hll: precision %d outside [%d,%d]", precision, MinPrecision, MaxPrecision)
	}
	return &Sketch{
		precision: uint8(precision),
		registers: make([]uint8, 1<<precision),
	}, nil
}

// MustNew is New for statically known precisions; it panics on error.
func MustNew(precision int) *Sketch {
	s, err := New(precision)
	if err != nil {
		panic(err)
	}
	return s
}

// Precision returns k = log2(number of cells).
func (s *Sketch) Precision() int { return int(s.precision) }

// NumCells returns β, the number of cells.
func (s *Sketch) NumCells() int { return len(s.registers) }

// Split decomposes a 64-bit hash into the cell index ι(x) (the top k bits)
// and the rank ρ(x) (leading zeros of the remaining 64−k bits, plus one).
// The rank is capped at 64−k+1, which the estimator never distinguishes in
// practice.
func Split(hash uint64, precision int) (cell uint32, rank uint8) {
	cell = uint32(hash >> (64 - precision))
	rest := hash << precision
	// After the shift the low `precision` bits are zero; they must not
	// contribute to the rank, so cap explicitly.
	r := bits.LeadingZeros64(rest) + 1
	if max := 64 - precision + 1; r > max {
		r = max
	}
	return cell, uint8(r)
}

// AddHash inserts a pre-hashed item.
func (s *Sketch) AddHash(hash uint64) {
	cell, rank := Split(hash, int(s.precision))
	if rank > s.registers[cell] {
		s.registers[cell] = rank
	}
}

// Add inserts an item identified by a 64-bit value, hashing it first.
func (s *Sketch) Add(item uint64) { s.AddHash(Hash64(item)) }

// SetRegister raises cell to at least rank. It is the primitive the
// versioned sketch uses when collapsing a window into a plain HLL.
func (s *Sketch) SetRegister(cell uint32, rank uint8) {
	if rank > s.registers[cell] {
		s.registers[cell] = rank
	}
}

// Register returns the current rank stored in cell.
func (s *Sketch) Register(cell uint32) uint8 { return s.registers[cell] }

// Merge unions other into s (cell-wise maximum). Both sketches must share
// the same precision.
func (s *Sketch) Merge(other *Sketch) error {
	if other.precision != s.precision {
		return fmt.Errorf("hll: cannot merge precision %d into %d", other.precision, s.precision)
	}
	for i, r := range other.registers {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{precision: s.precision, registers: make([]uint8, len(s.registers))}
	copy(c.registers, s.registers)
	return c
}

// Reset empties the sketch.
func (s *Sketch) Reset() {
	for i := range s.registers {
		s.registers[i] = 0
	}
}

// Estimate returns the approximate number of distinct items inserted,
// using the bias-corrected raw estimate with small-range linear counting,
// as in Flajolet et al.
func (s *Sketch) Estimate() float64 {
	return EstimateRegisters(s.registers)
}

// exp2neg[r] = 2^−r for every possible register value. Ranks are exact
// binary exponents, so the table entries are the same float64s math.Exp2
// produces call by call — estimates are bit-identical, minus a ~10 ns
// transcendental call per register on the summation hot path.
var exp2neg = func() (t [256]float64) {
	for i := range t {
		t[i] = math.Exp2(-float64(i))
	}
	return t
}()

// EstimateRegisters runs the HyperLogLog estimator over a raw register
// array (whose length must be a power of two). It is shared with the
// versioned sketch, which materializes windowed register arrays.
func EstimateRegisters(registers []uint8) float64 {
	var sum float64
	zeros := 0
	for _, r := range registers {
		sum += exp2neg[r]
		if r == 0 {
			zeros++
		}
	}
	return estimate(len(registers), sum, zeros)
}

// UnionEstimate returns the Estimate of the union of s and other without
// building it: the cell-wise maximum is taken on the fly and summed in
// the same order, so the result is bit-identical to cloning s, merging
// other, and estimating the clone. Both sketches must share the same
// precision.
func (s *Sketch) UnionEstimate(other *Sketch) (float64, error) {
	if other.precision != s.precision {
		return 0, fmt.Errorf("hll: cannot union precision %d with %d", other.precision, s.precision)
	}
	o := other.registers[:len(s.registers)]
	var sum float64
	zeros := 0
	for i, r := range s.registers {
		r = max(r, o[i])
		sum += exp2neg[r]
		if r == 0 {
			zeros++
		}
	}
	return estimate(len(s.registers), sum, zeros), nil
}

// estimate finishes the HyperLogLog estimator from the register count,
// the sum of 2^−register, and the number of zero registers.
func estimate(cells int, sum float64, zeros int) float64 {
	m := float64(cells)
	raw := alpha(cells) * m * m / sum
	// Small-range correction: fall back to linear counting while any cell
	// is still empty and the raw estimate is below the 5/2·m threshold.
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

// alpha is the bias-correction constant α_m from Flajolet et al.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// MemoryBytes returns the payload size of the sketch: one byte per cell.
func (s *Sketch) MemoryBytes() int { return len(s.registers) }

// Hash64 maps a 64-bit value to a well-mixed 64-bit hash using the
// splitmix64 finalizer. It is deterministic across runs, which keeps every
// experiment in this repository reproducible.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString maps a string to a 64-bit hash (FNV-1a folded through
// Hash64), for callers whose items are external identifiers.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Hash64(h)
}
