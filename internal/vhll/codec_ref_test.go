package vhll

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ipin/internal/hll"
)

// The reference VHL1 codec: the straightforward cell-by-cell encoder and
// bytes.Reader decoder the package shipped before AppendBinary and the
// two-pass UnmarshalBinary. It walks all β cells through the slot map
// and writes a count byte for each, so its bytes are the format's
// definition; the differential tests hold the production codec to them.

// refMarshalBinary encodes s cell by cell into a growing buffer.
func refMarshalBinary(s *Sketch) []byte {
	var buf bytes.Buffer
	buf.Write(vhllMagic[:])
	buf.WriteByte(s.precision)
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < s.NumCells(); i++ {
		var list []Entry
		if si := s.slot[i]; si != 0 {
			list = s.cellEntries(int(si - 1))
		}
		n := binary.PutUvarint(tmp[:], uint64(len(list)))
		buf.Write(tmp[:n])
		prev := int64(0)
		for _, e := range list {
			n = binary.PutVarint(tmp[:], e.At-prev)
			buf.Write(tmp[:n])
			buf.WriteByte(e.Rank)
			prev = e.At
		}
	}
	return buf.Bytes()
}

// refUnmarshalBinary decodes data through a bytes.Reader, appending each
// populated cell's region to a growing arena, and verifies the result
// with CheckInvariant.
func refUnmarshalBinary(data []byte) (*Sketch, error) {
	if len(data) < 5 || !bytes.Equal(data[:4], vhllMagic[:]) {
		return nil, fmt.Errorf("vhll: bad magic")
	}
	p := int(data[4])
	if p < hll.MinPrecision || p > hll.MaxPrecision {
		return nil, fmt.Errorf("vhll: bad precision %d", p)
	}
	r := bytes.NewReader(data[5:])
	decoded := &Sketch{precision: uint8(p), slot: make([]uint32, 1<<p)}
	for i := 0; i < 1<<p; i++ {
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("vhll: cell %d count: %v", i, err)
		}
		if count > uint64(r.Len())/2 {
			return nil, fmt.Errorf("vhll: cell %d count %d exceeds remaining input", i, count)
		}
		if count > maxCellEntries {
			return nil, fmt.Errorf("vhll: cell %d count %d exceeds max staircase length %d", i, count, maxCellEntries)
		}
		if count == 0 {
			continue
		}
		off := len(decoded.arena)
		decoded.arena = append(decoded.arena, make([]Entry, count)...)
		list := decoded.arena[off:]
		prev := int64(0)
		for j := range list {
			delta, err := binary.ReadVarint(r)
			if err != nil {
				return nil, fmt.Errorf("vhll: cell %d entry %d time: %v", i, j, err)
			}
			rank, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("vhll: cell %d entry %d rank: %v", i, j, err)
			}
			prev += delta
			list[j] = Entry{At: prev, Rank: rank}
		}
		decoded.regs = append(decoded.regs, region{off: uint32(off), n: uint16(count), c: uint16(count)})
		decoded.occupied = append(decoded.occupied, uint32(i))
		decoded.slot[i] = uint32(len(decoded.occupied))
		decoded.live += int(count)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("vhll: %d trailing bytes", r.Len())
	}
	if err := decoded.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("vhll: corrupt payload: %v", err)
	}
	return decoded, nil
}
