package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ipin/internal/graph"
)

// Chunk sidecars: the durable form of sealed chunks, what makes recovery
// cost proportional to the WAL suffix instead of the whole log. Every
// time the compactor runs, it first persists each newly sealed chunk's
// edges as one sidecar file, so a restart rebuilds the incremental state
// with AppendSealedChunk instead of replaying the full WAL. A chunk's
// block-local sketches are a pure function of its edges, so they are not
// stored: the first fold that needs a recovered chunk's sketches rescans
// it (core runs those scans in parallel), and a restart whose fold cache
// is seeded from checkpoint.irx rescans nothing at all. Once a chunk
// batch is durable (files written, directory fsynced), the WAL segments
// it covers are dead weight and DeleteCovered reclaims them.
//
// Layout (normative spec in DESIGN.md): one file per sealed chunk,
// chunk-%08d.blk, numbered by chunk index from zero. A file starts with
// the 8-byte header "ICHK0002" and holds exactly one record framed like
// a WAL record:
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// The payload is: uvarint chunk index (must match the file name),
// uvarint node range at seal time, then the edge block in WAL record
// encoding (uvarint count, per edge uvarint src/dst, varint absolute
// first timestamp then uvarint deltas) running to the end of the
// payload.
//
// Files headed "ICHK0001" (written before sidecars went edge-only) still
// load: their payload has uvarint omega and precision after the index,
// a uvarint length before the edge block, and a sketch section after it.
// The reader checks the CRC over all of it, keeps the index, node range
// and edges, and skips the sketches.
//
// Crash safety: files are written tmp + fsync + rename, so a sidecar
// that EXISTS under its final name is complete — any content damage is
// real corruption and fails recovery. Renames can still hit the
// directory out of order before the batch's dir fsync, so recovery
// loads only the contiguous prefix chunk-0..chunk-k and deletes any
// orphan past a gap; the WAL still covers those edges, because segments
// are only deleted after the sidecar batch (and its dir fsync) landed.

// chunkMagic heads every sidecar written; chunkMagicV1 heads the legacy
// files that also carried block-local sketches.
const (
	chunkMagic   = "ICHK0002"
	chunkMagicV1 = "ICHK0001"
)

// chunkFilePattern matches sidecar files inside the state directory.
const chunkFilePattern = "chunk-*.blk"

// chunkFileName renders the sidecar file name of chunk index i.
func chunkFileName(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("chunk-%08d.blk", i))
}

// chunkFileIndex parses the chunk index out of a sidecar file name.
// Width-free %d, not %08d: a scan width caps the digits read, which
// would misparse indices past the zero-padded range.
func chunkFileIndex(name string) (int, error) {
	var i int
	if _, err := fmt.Sscanf(filepath.Base(name), "chunk-%d.blk", &i); err != nil {
		return 0, fmt.Errorf("stream: chunk file name %q: %v", name, err)
	}
	return i, nil
}

// chunkData is one decoded sidecar.
type chunkData struct {
	index    int
	numNodes int
	edges    []graph.Interaction
}

// encodeChunkFile renders the complete sidecar file of sealed chunk i.
func encodeChunkFile(i, numNodes int, edges []graph.Interaction) []byte {
	hdr := len(chunkMagic) + walFrameBytes
	buf := make([]byte, hdr, hdr+16+9*len(edges))
	copy(buf, chunkMagic)
	buf = binary.AppendUvarint(buf, uint64(i))
	buf = binary.AppendUvarint(buf, uint64(numNodes))
	buf = append(buf, encodeRecord(edges)...)
	payload := buf[hdr:]
	binary.LittleEndian.PutUint32(buf[len(chunkMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(chunkMagic)+4:], crc32.Checksum(payload, walCRC))
	return buf
}

// decodeChunkPayload parses one sidecar payload; legacy selects the
// ICHK0001 layout.
func decodeChunkPayload(payload []byte, legacy bool) (*chunkData, error) {
	take := func(what string) (uint64, error) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, fmt.Errorf("bad %s", what)
		}
		payload = payload[n:]
		return v, nil
	}
	idx, err := take("chunk index")
	if err != nil {
		return nil, err
	}
	if legacy {
		// Omega and precision described the skipped sketches only.
		if _, err := take("omega"); err != nil {
			return nil, err
		}
		if _, err := take("precision"); err != nil {
			return nil, err
		}
	}
	nodes, err := take("node count")
	if err != nil {
		return nil, err
	}
	if idx > math.MaxInt32 || nodes > math.MaxInt32 {
		return nil, fmt.Errorf("implausible header (index %d, nodes %d)", idx, nodes)
	}
	block := payload
	if legacy {
		elen, err := take("edge block length")
		if err != nil {
			return nil, err
		}
		if elen > uint64(len(payload)) {
			return nil, fmt.Errorf("edge block length %d exceeds payload", elen)
		}
		block = payload[:elen]
	}
	var edges []graph.Interaction
	lastAt := int64(math.MinInt64)
	if err := decodeRecord(block, &edges, &lastAt); err != nil {
		return nil, fmt.Errorf("edge block: %v", err)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("empty chunk")
	}
	return &chunkData{index: int(idx), numNodes: int(nodes), edges: edges}, nil
}

// parseChunkFile validates a sidecar file's header, framing, and
// checksum, decodes it, and checks that it holds chunk index want.
func parseChunkFile(data []byte, want int) (*chunkData, error) {
	if len(data) < len(chunkMagic)+walFrameBytes {
		return nil, fmt.Errorf("short header")
	}
	magic, rest := string(data[:len(chunkMagic)]), data[len(chunkMagic):]
	if magic != chunkMagic && magic != chunkMagicV1 {
		return nil, fmt.Errorf("bad magic")
	}
	plen := int64(binary.LittleEndian.Uint32(rest))
	sum := binary.LittleEndian.Uint32(rest[4:])
	if plen > maxRecordBytes || int64(len(rest)) != walFrameBytes+plen {
		return nil, fmt.Errorf("bad length %d for %d-byte file", plen, len(data))
	}
	payload := rest[walFrameBytes:]
	if crc32.Checksum(payload, walCRC) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	c, err := decodeChunkPayload(payload, magic == chunkMagicV1)
	if err != nil {
		return nil, err
	}
	if c.index != want {
		return nil, fmt.Errorf("holds index %d", c.index)
	}
	return c, nil
}

// writeChunkFile persists sealed chunk i. The caller fsyncs the
// directory once per batch.
func writeChunkFile(dir string, i, numNodes int, edges []graph.Interaction, mx *metrics) error {
	data := encodeChunkFile(i, numNodes, edges)
	if err := writeFileSynced(chunkFileName(dir, i), data); err != nil {
		return err
	}
	mx.chunkFiles.Inc()
	mx.chunkFileBytes.Add(int64(len(data)))
	return nil
}

// writeFileSynced writes data to path via tmp + fsync + rename, so the
// file under its final name is always complete. Making the rename
// durable (a directory fsync) is left to the caller.
func writeFileSynced(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// readChunkFile reads and validates one sidecar; the decoded index must
// match want (the index implied by the file name and load order).
func readChunkFile(name string, want int) (*chunkData, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	c, err := parseChunkFile(data, want)
	if err != nil {
		return nil, fmt.Errorf("stream: chunk file %s: %v", name, err)
	}
	return c, nil
}

// loadChunks reads the contiguous sidecar run chunk-floor..chunk-k from
// dir. floor is the first retained chunk index recorded by the durable
// checkpoint metadata: files BELOW it were retired — their deletion is
// allowed only after that metadata landed, so any still on disk are the
// leftovers of a crash mid-retirement and are deleted here. Files past a
// gap in the index sequence are orphans — renames that landed without
// their batch's dir fsync before a crash — and are deleted (their edges
// are still in the WAL, which is only compacted after a batch is fully
// durable). A sidecar that exists but fails validation is real
// corruption and fails the load: its content was fsynced before the
// rename, so presence implies completeness.
func loadChunks(dir string, floor int) ([]*chunkData, error) {
	names, err := filepath.Glob(filepath.Join(dir, chunkFilePattern))
	if err != nil {
		return nil, err
	}
	byIndex := make(map[int]string, len(names))
	indices := make([]int, 0, len(names))
	removedOrphans := false
	for _, name := range names {
		i, err := chunkFileIndex(name)
		if err != nil {
			return nil, err
		}
		if i < floor {
			if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			removedOrphans = true
			continue
		}
		byIndex[i] = name
		indices = append(indices, i)
	}
	sort.Ints(indices)
	var chunks []*chunkData
	for len(chunks) < len(indices) && indices[len(chunks)] == floor+len(chunks) {
		next := floor + len(chunks)
		c, err := readChunkFile(byIndex[next], next)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
	}
	for _, i := range indices[len(chunks):] {
		if err := os.Remove(byIndex[i]); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		removedOrphans = true
	}
	// Stray tmp files from an interrupted write are garbage by definition.
	tmps, err := filepath.Glob(filepath.Join(dir, chunkFilePattern+".tmp"))
	if err != nil {
		return nil, err
	}
	for _, name := range tmps {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		removedOrphans = true
	}
	if removedOrphans {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	return chunks, nil
}
