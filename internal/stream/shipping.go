package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ipin/internal/graph"
)

// Shipping: read-only views of an ingester state directory, the
// full-sync source for internal/repl. A replication session reads the
// primary's own files — checkpoint metadata, chunk sidecars, WAL
// segments — WITHOUT taking any lock on the run loop, which keeps
// ingestion entirely unaware of how many replicas are syncing. The
// protocol that makes this safe:
//
//   - the session registers its live tap (SetEmitSink fan-out) BEFORE
//     reading the directory, so every edge emitted after registration
//     arrives over the tap;
//   - the directory read then covers at least every edge emitted before
//     registration (WAL appends happen before the sink call), so the
//     snapshot and the tap overlap rather than gap — overlap is resolved
//     by emit positions;
//   - concurrent writers can still tear the read (a segment mid-append,
//     a sidecar mid-retirement): a torn tail in the final segment simply
//     ends the snapshot (the tap has the rest), and a meta change
//     observed across the read retries it.

// EncodeBatch renders a batch of edges (strictly increasing timestamps)
// in the WAL record encoding — the payload body of an IREP0001 Edges
// frame and of WAL and sidecar records alike.
func EncodeBatch(batch []graph.Interaction) []byte { return encodeRecord(batch) }

// DecodeBatch parses one WAL-encoded edge batch.
func DecodeBatch(payload []byte) ([]graph.Interaction, error) {
	var edges []graph.Interaction
	lastAt := int64(math.MinInt64)
	if err := decodeRecord(payload, &edges, &lastAt); err != nil {
		return nil, err
	}
	return edges, nil
}

// CheckpointInfo is the decoded checkpoint.meta.json sidecar in exported
// form: what a checkpoint claimed when it landed. Replication uses it as
// the snapshot's base coordinates.
type CheckpointInfo struct {
	Edges        int64 // emit index one past the last covered edge
	LastAt       int64 // newest covered timestamp
	Chunks       int   // chunks folded (retired included)
	FirstChunk   int   // first retained chunk index
	RetiredEdges int   // edges in chunks below FirstChunk
	Omega        int64
	Precision    int
	Epoch        uint64 // fencing epoch the checkpoint was written under
}

// ReadCheckpointInfo loads the checkpoint metadata of a state directory;
// ok is false when none exists (or it is unparseable, which recovery
// treats the same way).
func ReadCheckpointInfo(dir string) (*CheckpointInfo, bool) {
	m := readCheckpointMeta(dir)
	if m == nil {
		return nil, false
	}
	return &CheckpointInfo{
		Edges: m.Edges, LastAt: m.LastAt, Chunks: m.Chunks, FirstChunk: m.FirstChunk,
		RetiredEdges: m.RetiredEdges, Omega: m.Omega, Precision: m.Precision, Epoch: m.Epoch,
	}, true
}

// Snapshot is one consistent read-only decode of a state directory: the
// retained emitted prefix, where it starts, and the sidecar files that
// cover its head. It is what a replication session ships on attach.
type Snapshot struct {
	// MetaJSON is the raw checkpoint.meta.json contents, nil when the
	// directory has never checkpointed. A fresh replica writes these
	// bytes verbatim so its recovery sees exactly the primary's floor.
	MetaJSON []byte
	// Base is the emit index of Edges[0]: the retired-edge count. Edges
	// below Base were retired past the retention horizon and cannot be
	// shipped — a replica behind Base must resync from scratch.
	Base int64
	// BaseLastAt is the newest timestamp of the retired prefix
	// (math.MinInt64 when nothing was retired).
	BaseLastAt int64
	// Edges is every retained emitted edge, in emit order: sidecar chunks
	// first, then the WAL suffix past them.
	Edges []graph.Interaction
	// FirstChunk and ChunkFiles name the contiguous sidecar run on disk;
	// ChunkEdges is how many of Edges they cover (a prefix).
	FirstChunk int
	ChunkFiles []string
	ChunkEdges int64
	// Epoch is the newest epoch across the WAL segment headers.
	Epoch uint64
}

// End returns the emit index one past the last snapshot edge.
func (s *Snapshot) End() int64 { return s.Base + int64(len(s.Edges)) }

// ReadSnapshot decodes a state directory read-only — nothing is
// truncated, repaired, or deleted, so it is safe against a live
// ingester's directory. A torn tail in the final WAL segment ends the
// edge sequence (the live tap covers the rest); a checkpoint or
// retirement racing the read is detected by re-reading the metadata and
// retrying.
func ReadSnapshot(dir string) (*Snapshot, error) {
	const attempts = 5
	var err error
	for i := 0; i < attempts; i++ {
		var s *Snapshot
		s, err = readSnapshotOnce(dir)
		if err == nil {
			return s, nil
		}
	}
	return nil, fmt.Errorf("stream: snapshot of %s: %w", dir, err)
}

func readSnapshotOnce(dir string) (*Snapshot, error) {
	metaRaw, _ := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	var meta *ckptMeta
	if len(metaRaw) > 0 {
		m := decodeCkptMeta(metaRaw)
		if m == nil {
			return nil, fmt.Errorf("unparseable checkpoint metadata")
		}
		meta = m
	}
	floor, retired, metaLastAt := 0, 0, int64(math.MinInt64)
	if meta != nil {
		floor, retired, metaLastAt = meta.FirstChunk, meta.RetiredEdges, meta.LastAt
	}
	s := &Snapshot{MetaJSON: metaRaw, Base: int64(retired), BaseLastAt: math.MinInt64, FirstChunk: floor}
	if floor > 0 {
		s.BaseLastAt = metaLastAt
	}
	files, err := listChunkFiles(dir, floor)
	if err != nil {
		return nil, err
	}
	chunkLastAt := int64(math.MinInt64)
	for i, name := range files {
		c, err := readChunkFile(name, floor+i)
		if err != nil {
			return nil, err
		}
		s.Edges = append(s.Edges, c.edges...)
		chunkLastAt = int64(c.edges[len(c.edges)-1].At)
	}
	s.ChunkFiles = files
	s.ChunkEdges = int64(len(s.Edges))
	walEdges, epoch, err := readSegmentsReadOnly(dir)
	if err != nil {
		return nil, err
	}
	s.Epoch = epoch
	// Same suffix rule as recovery: sidecars cover the WAL up to the last
	// sidecar timestamp; with every sidecar retired, the metadata's
	// last_at marks the covered prefix instead.
	skipAt := chunkLastAt
	if len(files) == 0 && floor > 0 {
		skipAt = metaLastAt
	}
	for len(walEdges) > 0 && int64(walEdges[0].At) <= skipAt {
		walEdges = walEdges[1:]
	}
	s.Edges = append(s.Edges, walEdges...)
	// Consistency check: if a checkpoint or retirement rewrote the
	// metadata while we were reading, the floor coordinates above may
	// describe files that no longer exist. Retry in that case.
	metaRaw2, _ := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if !bytes.Equal(metaRaw, metaRaw2) {
		return nil, fmt.Errorf("checkpoint metadata changed during read")
	}
	return s, nil
}

// decodeCkptMeta parses raw checkpoint metadata bytes (readCheckpointMeta
// reads from disk; this works on bytes already in hand).
func decodeCkptMeta(raw []byte) *ckptMeta {
	var meta ckptMeta
	if json.Unmarshal(raw, &meta) != nil {
		return nil
	}
	if meta.FirstChunk < 0 || meta.RetiredEdges < 0 || meta.Chunks < meta.FirstChunk {
		return nil
	}
	return &meta
}

// listChunkFiles returns the contiguous sidecar run floor, floor+1, …
// present in dir, non-destructively (unlike loadChunks it never deletes
// orphans — the directory belongs to a live ingester).
func listChunkFiles(dir string, floor int) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, chunkFilePattern))
	if err != nil {
		return nil, err
	}
	byIndex := make(map[int]string, len(names))
	indices := make([]int, 0, len(names))
	for _, name := range names {
		i, err := chunkFileIndex(name)
		if err != nil {
			return nil, err
		}
		if i < floor {
			continue
		}
		byIndex[i] = name
		indices = append(indices, i)
	}
	sort.Ints(indices)
	var run []string
	for len(run) < len(indices) && indices[len(run)] == floor+len(run) {
		run = append(run, byIndex[floor+len(run)])
	}
	return run, nil
}

// readSegmentsReadOnly decodes every WAL segment in dir without
// repairing anything: a torn tail in the final segment ends the decode,
// a missing file (compacted away mid-read) is skipped — its edges were
// sidecar-covered — and damage in an earlier segment is an error. It
// returns the decoded edges and the newest segment epoch.
func readSegmentsReadOnly(dir string) ([]graph.Interaction, uint64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, 0, err
	}
	seqs := make([]int, len(names))
	for i, name := range names {
		if seqs[i], err = segmentSeq(name); err != nil {
			return nil, 0, err
		}
	}
	sort.Sort(&segOrder{seqs: seqs, names: names})
	var edges []graph.Interaction
	lastAt := int64(math.MinInt64)
	var epoch uint64
	for i, name := range names {
		final := i == len(names)-1
		data, err := os.ReadFile(name)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, 0, err
		}
		hdr, segEpoch, err := parseSegmentHeader(data)
		if err != nil {
			if final && hdr >= 0 {
				break // torn header on the active segment: snapshot ends here
			}
			return nil, 0, fmt.Errorf("stream: wal segment %s: %v", name, err)
		}
		if segEpoch > epoch {
			epoch = segEpoch
		}
		off := int64(hdr)
		for off < int64(len(data)) {
			rest := data[off:]
			if len(rest) < walFrameBytes {
				break
			}
			plen := int64(binary.LittleEndian.Uint32(rest))
			sum := binary.LittleEndian.Uint32(rest[4:])
			if plen > maxRecordBytes || int64(len(rest)) < walFrameBytes+plen {
				break
			}
			payload := rest[walFrameBytes : walFrameBytes+plen]
			if crc32.Checksum(payload, walCRC) != sum {
				break
			}
			if err := decodeRecord(payload, &edges, &lastAt); err != nil {
				return nil, 0, fmt.Errorf("stream: wal segment %s record at %d: %v", name, off, err)
			}
			off += walFrameBytes + plen
		}
		if off < int64(len(data)) && !final {
			return nil, 0, fmt.Errorf("stream: wal segment %s corrupt at %d: only the final segment may have a torn tail", name, off)
		}
	}
	return edges, epoch, nil
}

// WriteShippedMeta installs checkpoint metadata shipped by a primary
// into a (fresh) replica state directory, after validating it parses.
// Written via tmp + rename like every other metadata write.
func WriteShippedMeta(dir string, metaJSON []byte) error {
	if decodeCkptMeta(metaJSON) == nil {
		return fmt.Errorf("stream: shipped checkpoint metadata unparseable")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, CheckpointMetaName)
	if err := os.WriteFile(path+".tmp", metaJSON, 0o644); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return syncDir(dir)
}

// WriteShippedChunk installs a raw chunk sidecar file shipped by a
// primary, validating framing, checksum, and index before anything
// touches the directory, and writing it like writeChunkFile: a sidecar
// present under its final name is complete.
func WriteShippedChunk(dir string, index int, data []byte) error {
	if _, err := parseChunkFile(data, index); err != nil {
		return fmt.Errorf("stream: shipped chunk %d: %v", index, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFileSynced(chunkFileName(dir, index), data)
}
