package vhll

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ipin/internal/hll"
)

// Binary format: 4-byte magic "VHL1", 1-byte precision, then per cell a
// uvarint entry count followed by the entries as (zigzag-varint timestamp
// delta, rank byte) pairs. Timestamps within a cell ascend, so deltas
// against the previous entry compress well.
//
// The bytes depend only on per-cell staircase CONTENT in cell order
// 0..β−1 — the arena's first-touch region order, capacities, and garbage
// are invisible, which is what keeps the format bit-identical across the
// flat-layout refactor. The encoder visits only populated cells and
// writes each run of empty cells as a run of zero count bytes, so its
// cost tracks the O(β·log²ω) populated content (Lemma 6) plus one byte
// per empty cell; the bytes are those of a cell-by-cell walk
// (codec_ref_test.go holds that reference and the differential tests).
var vhllMagic = [4]byte{'V', 'H', 'L', '1'}

// maxSortedCells caps how many populated cells AppendBinary orders by
// sorting on the stack; see sortedWalkMax.
const maxSortedCells = 32

// sortedWalkMax returns the largest populated-cell count for which
// AppendBinary sorts the occupied index instead of scanning the β-entry
// slot map for populated cells. Sorting never reads the slot map, whose
// cache misses dominate encoding a sparse sketch; at β = 512 the sort
// stops paying at about β/16 = 32 cells, which the stack buffer holds.
func sortedWalkMax(numCells int) int { return min(maxSortedCells, numCells/16) }

// EncodedLenBound returns an upper bound on the length of the sketch's
// VHL1 encoding: the header, one count byte per cell plus a second for
// each populated cell, and a maximal varint plus the rank byte per
// entry. A caller encoding many sketches can size one buffer for all.
func (s *Sketch) EncodedLenBound() int {
	return len(vhllMagic) + 1 + s.NumCells() + len(s.occupied) + s.live*(binary.MaxVarintLen64+1)
}

// AppendBinary appends the sketch's VHL1 encoding to dst and returns the
// extended slice. It grows dst at most once, to EncodedLenBound, so
// encoding into a buffer with that much spare capacity allocates nothing.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, s.EncodedLenBound())
	dst = append(dst, vhllMagic[:]...)
	dst = append(dst, s.precision)
	next := 0 // first cell not yet written
	if len(s.occupied) <= sortedWalkMax(s.NumCells()) {
		// Sort (cell, region) pairs packed as cell<<32 | region, so the
		// walk never touches the slot map.
		var buf [maxSortedCells]uint64
		order := buf[:len(s.occupied)]
		for k, cell := range s.occupied {
			order[k] = uint64(cell)<<32 | uint64(k)
		}
		slices.Sort(order)
		for _, o := range order {
			cell := int(o >> 32)
			dst = append(dst, make([]byte, cell-next)...)
			dst = s.appendCell(dst, int(uint32(o)))
			next = cell + 1
		}
	} else {
		for cell, si := range s.slot {
			if si == 0 {
				continue
			}
			dst = append(dst, make([]byte, cell-next)...)
			dst = s.appendCell(dst, int(si-1))
			next = cell + 1
		}
	}
	return append(dst, make([]byte, s.NumCells()-next)...)
}

// appendCell appends region k's entry count and delta-coded entries.
func (s *Sketch) appendCell(dst []byte, k int) []byte {
	list := s.cellEntries(k)
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	prev := int64(0)
	for _, e := range list {
		dst = binary.AppendVarint(dst, e.At-prev)
		dst = append(dst, e.Rank)
		prev = e.At
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler. A first pass
// validates the structure and counts populated cells and entries; the
// arena, region table and occupied index are then allocated once at their
// exact sizes and filled by a second pass, with tight regions (capacity =
// length) in cell order — later inserts regrow them on demand. The
// decoded sketch is verified against the staircase invariant, so
// corrupted or adversarial input is rejected rather than silently
// accepted, and s is left untouched on error.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 5 || [4]byte(data[:4]) != vhllMagic {
		return fmt.Errorf("vhll: bad magic")
	}
	p := int(data[4])
	if p < hll.MinPrecision || p > hll.MaxPrecision {
		return fmt.Errorf("vhll: bad precision %d", p)
	}
	cells, entries, err := scanCells(data, 1<<p)
	if err != nil {
		return err
	}
	d := Sketch{precision: uint8(p), live: entries, slot: make([]uint32, 1<<p)}
	if cells > 0 {
		d.arena = make([]Entry, entries)
		d.regs = make([]region, cells)
		d.occupied = make([]uint32, cells)
	}
	// scanCells accepted every varint and bound below, so this pass reads
	// without checks and stops at the last populated cell.
	pos, off := 5, 0
	for i, k := 0, 0; k < cells; i++ {
		z := zeroRun(data[pos:], len(d.slot)-i)
		i += z
		pos += z
		count, n := binary.Uvarint(data[pos:])
		pos += n
		if count == 0 {
			continue // a zero count in a non-minimal varint
		}
		list := d.arena[off : off+int(count)]
		prev := int64(0)
		for j := range list {
			delta, n := binary.Varint(data[pos:])
			prev += delta
			list[j] = Entry{At: prev, Rank: data[pos+n]}
			pos += n + 1
		}
		d.regs[k] = region{off: uint32(off), n: uint16(count), c: uint16(count)}
		d.occupied[k] = uint32(i)
		d.slot[i] = uint32(k + 1)
		k++
		off += int(count)
	}
	if err := d.CheckInvariant(); err != nil {
		return fmt.Errorf("vhll: corrupt payload: %v", err)
	}
	*s = d
	return nil
}

// scanCells validates the cell section of a VHL1 payload (everything
// after the 5-byte header) for numCells cells and returns how many cells
// are populated and how many entries they hold. Every count is bounded
// before its entries are read: each entry takes at least two bytes
// (varint delta + rank), and ranks are strictly ascending uint8s, so a
// count above the remaining input or above maxCellEntries cannot decode.
func scanCells(data []byte, numCells int) (cells, entries int, err error) {
	pos := 5
	for i := 0; ; i++ {
		z := zeroRun(data[pos:], numCells-i) // empty cells, the common case
		i += z
		pos += z
		if i == numCells {
			break
		}
		count, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, 0, fmt.Errorf("vhll: cell %d count: malformed or truncated varint", i)
		}
		pos += n
		if count > uint64(len(data)-pos)/2 {
			return 0, 0, fmt.Errorf("vhll: cell %d count %d exceeds remaining input", i, count)
		}
		if count > maxCellEntries {
			return 0, 0, fmt.Errorf("vhll: cell %d count %d exceeds max staircase length %d", i, count, maxCellEntries)
		}
		for j := 0; j < int(count); j++ {
			_, n := binary.Varint(data[pos:])
			if n <= 0 {
				return 0, 0, fmt.Errorf("vhll: cell %d entry %d time: malformed or truncated varint", i, j)
			}
			pos += n
			if pos >= len(data) {
				return 0, 0, fmt.Errorf("vhll: cell %d entry %d rank: truncated", i, j)
			}
			pos++
		}
		if count > 0 {
			cells++
			entries += int(count)
		}
	}
	if pos != len(data) {
		return 0, 0, fmt.Errorf("vhll: %d trailing bytes", len(data)-pos)
	}
	return cells, entries, nil
}

// zeroRun returns the length of the run of zero bytes data starts with,
// capped at limit: a run of empty cells, skipped eight at a time.
func zeroRun(data []byte, limit int) int {
	n := 0
	for n+8 <= limit && n+8 <= len(data) && binary.LittleEndian.Uint64(data[n:]) == 0 {
		n += 8
	}
	for n < limit && n < len(data) && data[n] == 0 {
		n++
	}
	return n
}
