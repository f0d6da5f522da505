package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
)

// Regression tests for the incremental-checkpoint / WAL-compaction work:
// chunk sidecar durability, covered-segment deletion, and the sweep of
// live-pipeline fixes (pending-chunk fragmentation, accepted-count
// inflation, numeric segment ordering, live checkpoint age).

// pollUntil spins until cond holds or the deadline passes.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointSkipKeepsPendingUnsealed: while the compactor is busy,
// edge-triggered checkpoints must skip WITHOUT sealing the pending
// partial chunk. The old code sealed first and skipped after, so every
// trigger during a slow fold sealed another tiny chunk — with
// CheckpointEdges=5 and a stalled publish this fragmented a 100-edge
// stream into ~20 five-edge chunks. Fixed, the stream seals a handful.
func TestCheckpointSkipKeepsPendingUnsealed(t *testing.T) {
	reg := obs.NewRegistry()
	started := make(chan struct{})
	gate := make(chan struct{})
	var pubs atomic.Int32
	in, err := New(Config{
		Dir:             t.TempDir(),
		Omega:           50,
		Precision:       4,
		ChunkEdges:      1000,
		CheckpointEdges: 5,
		CheckpointEvery: -1,
		SyncEvery:       -1,
		Registry:        reg,
		Publish: func(*core.ApproxSummaries) {
			if pubs.Add(1) == 1 {
				close(started)
				<-gate // stall the compactor mid-checkpoint
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Push one edge at a time, waiting for each to be absorbed: the run
	// loop coalesces queued bursts into one batch, and fragmentation only
	// shows when separate absorbs re-trigger the edge threshold.
	push := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := in.Push(graph.Interaction{Src: graph.NodeID(i % 7), Dst: graph.NodeID(i % 5), At: graph.Time(i + 1)}); err != nil {
				t.Fatal(err)
			}
			want := int64(i + 1)
			pollUntil(t, "edge absorption", func() bool { return in.Stats().Emitted == want })
		}
	}
	push(0, 5) // reaches the edge trigger, submits checkpoint #1
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first checkpoint never started")
	}
	push(5, 100) // every absorb past the threshold re-triggers; all must skip
	pollUntil(t, "a skipped checkpoint", func() bool {
		return reg.Snapshot()[MetricCheckpointSkip].(int64) >= 1
	})
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := in.inc.NumChunks(); got > 4 {
		t.Fatalf("stalled compactor fragmented the stream into %d chunks", got)
	}
	if st := in.Stats(); st.Emitted != 100 {
		t.Fatalf("emitted = %d, want 100", st.Emitted)
	}
}

// TestAcceptedExcludesDrops: an edge the reorder buffer rejects never
// enters the pipeline and must not count as accepted. The old code
// incremented Accepted before offering, so Accepted − Emitted drifted
// upward by one per drop and no longer bounded the buffered depth.
func TestAcceptedExcludesDrops(t *testing.T) {
	in, err := New(Config{Dir: t.TempDir(), Omega: 10, Precision: 4, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []graph.Time{10, 20, 15, 30} { // 15 is a late straggler
		if err := in.Push(graph.Interaction{Src: 0, Dst: 1, At: at}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.ReorderDrops != 1 {
		t.Fatalf("drops = %d, want 1", st.ReorderDrops)
	}
	if st.Accepted != 3 {
		t.Fatalf("accepted = %d, want 3 (dropped straggler must not count)", st.Accepted)
	}
	if st.Emitted != 3 {
		t.Fatalf("emitted = %d, want 3", st.Emitted)
	}
}

// TestCheckpointAgeLive: stream_checkpoint_age_seconds must be computed
// at exposition time. The old gauge was only refreshed inside Stats(),
// so a scrape that never called Stats read a stale age forever.
func TestCheckpointAgeLive(t *testing.T) {
	reg := obs.NewRegistry()
	in, err := New(Config{Dir: t.TempDir(), Omega: 10, CheckpointEvery: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in.Close(ctx)
	if v := reg.Snapshot()[MetricCheckpointAge].(int64); v != 0 {
		t.Fatalf("age before any checkpoint = %d, want 0", v)
	}
	in.lastCkpt.Store(time.Now().Add(-3 * time.Second).UnixNano())
	// Deliberately no Stats() call: the scrape alone must see the age.
	if v := reg.Snapshot()[MetricCheckpointAge].(int64); v < 2 || v > 30 {
		t.Fatalf("age = %ds, want ≈3", v)
	}
}

// writeSegment fabricates a well-formed WAL segment holding one record.
func writeSegment(t *testing.T, name string, batch []graph.Interaction) {
	t.Helper()
	payload := encodeRecord(batch)
	buf := append([]byte(nil), walMagic[:]...)
	var frame [walFrameBytes]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, walCRC))
	buf = append(buf, frame[:]...)
	buf = append(buf, payload...)
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALSegmentNumericOrder: once a sequence number outgrows the
// zero-padded width, lexicographic order inverts replay order —
// "wal-100000000.seg" sorts before "wal-99999999.seg". The old
// sort.Strings replayed them backwards and died on the decreasing
// timestamp; segments must sort numerically by sequence.
func TestWALSegmentNumericOrder(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, filepath.Join(dir, "wal-99999999.seg"), []graph.Interaction{{Src: 0, Dst: 1, At: 1}})
	writeSegment(t, filepath.Join(dir, "wal-100000000.seg"), []graph.Interaction{{Src: 1, Dst: 2, At: 2}})
	w, recovered, err := OpenWAL(dir, WALConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recovered) != 2 || recovered[0].At != 1 || recovered[1].At != 2 {
		t.Fatalf("replayed %+v, want the two edges in timestamp order", recovered)
	}
	if w.seq != 100000000 {
		t.Fatalf("writer resumed at segment %d, want 100000000", w.seq)
	}
	// The log must remain appendable past the recovered tail.
	if err := w.Append([]graph.Interaction{{Src: 2, Dst: 0, At: 3}}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkSidecarRoundTrip: an ICHK0002 sidecar reproduces the chunk
// index, node range, and edges exactly, and the file layer rejects
// trailing garbage, a damaged byte, and an index/name mismatch.
func TestChunkSidecarRoundTrip(t *testing.T) {
	edges := []graph.Interaction{{Src: 1, Dst: 3, At: 4}, {Src: 3, Dst: 0, At: 9}}
	data := encodeChunkFile(7, 5, edges)
	if string(data[:len(chunkMagic)]) != "ICHK0002" {
		t.Fatalf("header %q", data[:len(chunkMagic)])
	}
	c, err := parseChunkFile(data, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.index != 7 || c.numNodes != 5 {
		t.Fatalf("header round-trip: %+v", c)
	}
	if len(c.edges) != 2 || c.edges[0] != edges[0] || c.edges[1] != edges[1] {
		t.Fatalf("edges round-trip: %+v", c.edges)
	}
	payload := data[len(chunkMagic)+walFrameBytes:]
	if _, err := decodeChunkPayload(append(append([]byte(nil), payload...), 0), false); err == nil {
		t.Fatal("trailing byte accepted")
	}
	damaged := append([]byte(nil), data...)
	damaged[len(damaged)-1] ^= 1
	if _, err := parseChunkFile(damaged, 7); err == nil {
		t.Fatal("damaged payload accepted")
	}

	dir := t.TempDir()
	if err := writeChunkFile(dir, 7, 5, edges, &metrics{}); err != nil {
		t.Fatal(err)
	}
	if _, err := readChunkFile(chunkFileName(dir, 7), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := readChunkFile(chunkFileName(dir, 7), 6); err == nil {
		t.Fatal("index/name mismatch accepted")
	}
}

// TestRecoveryFromSidecars: after a clean shutdown every sealed chunk is
// durable as a sidecar, so recovery rebuilds the whole state from
// sidecars with zero WAL replay, serves the identical bytes, and keeps
// ingesting correctly on top of the recovered (cache-seeded) state —
// without rescanning a single recovered chunk, because the seeded cache
// covers them and the incremental folds after it read only their edges.
func TestRecoveryFromSidecars(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	edges := testLog(rng, 30, 500)
	cfg := Config{Omega: 30, Precision: 4, ChunkEdges: 50, CheckpointEvery: -1}
	dir := t.TempDir()
	ingestAll(t, dir, edges, cfg)

	var published *core.ApproxSummaries
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.RecoveredChunkEdges != int64(len(edges)) || st.RecoveredWALEdges != 0 {
		t.Fatalf("recovered %d chunk / %d wal edges, want %d / 0",
			st.RecoveredChunkEdges, st.RecoveredWALEdges, len(edges))
	}
	if !bytes.Equal(summaryBytes(t, published), offlineBytes(t, edges, 0, 30, 4)) {
		t.Fatal("sidecar recovery differs from offline scan")
	}
	if n := in.inc.Rescans(); n != 0 {
		t.Fatalf("seeded restart rescanned %d chunks", n)
	}
	// Resume streaming on the recovered state: the fold cache seeded from
	// the checkpoint must compose with fresh chunks.
	more := testLog(rng, 30, 200)
	base := edges[len(edges)-1].At
	for i := range more {
		more[i].At += base
	}
	for _, e := range more {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	full := append(append([]graph.Interaction(nil), edges...), more...)
	if !bytes.Equal(summaryBytes(t, published), offlineBytes(t, full, 0, 30, 4)) {
		t.Fatal("resumed stream differs from offline scan over the full log")
	}
	if n := in.inc.Rescans(); n != 0 {
		t.Fatalf("folds after a seeded restart rescanned %d chunks", n)
	}
}

// TestWALCompactionBoundsDisk: once chunk sidecars cover a sealed WAL
// segment's edges, the segment is deleted — after a clean close only
// the active segment remains, regardless of how many rotations the
// stream forced.
func TestWALCompactionBoundsDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	edges := testLog(rng, 25, 600)
	reg := obs.NewRegistry()
	cfg := Config{Omega: 20, Precision: 4, ChunkEdges: 25, CheckpointEvery: -1,
		SegmentBytes: 256, SyncEvery: -1, Registry: reg}
	dir := t.TempDir()
	ingestAll(t, dir, edges, cfg)

	snap := reg.Snapshot()
	if deleted := snap[MetricWALDeletedSegs].(int64); deleted < 1 {
		t.Fatalf("no WAL segments deleted across %d rotations", snap[MetricWALSegments].(int64))
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("%d WAL segments on disk after close, want only the active one", len(segs))
	}
	// The pruned directory still recovers the full state.
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	if !bytes.Equal(summaryBytes(t, recovered), offlineBytes(t, edges, 0, 20, 4)) {
		t.Fatal("recovery after compaction differs from offline scan")
	}
}

// TestRecoverySuffixReplay: recovery rebuilds from the durable sidecar
// prefix and replays only the WAL suffix past it. Deleting the trailing
// sidecars (as a crash between compactor passes would leave things)
// must shift exactly those edges to WAL replay — and the stale
// checkpoint meta, which claims more chunks than survive, must be
// rejected by the fold-cache seeding without breaking recovery.
func TestRecoverySuffixReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	edges := testLog(rng, 20, 300)
	cfg := Config{Omega: 40, Precision: 4, ChunkEdges: 40, CheckpointEvery: -1}
	dir := t.TempDir()
	ingestAll(t, dir, edges, cfg)
	// 300 edges in 40-edge chunks: sidecars 0..6 hold 280, sidecar 7 the
	// final 20. Drop the last two; their 60 edges fall back to the WAL.
	for _, i := range []int{6, 7} {
		if err := os.Remove(chunkFileName(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	st := in2.Stats()
	if st.RecoveredChunkEdges != 240 || st.RecoveredWALEdges != 60 {
		t.Fatalf("recovered %d chunk / %d wal edges, want 240 / 60",
			st.RecoveredChunkEdges, st.RecoveredWALEdges)
	}
	if !bytes.Equal(summaryBytes(t, recovered), offlineBytes(t, edges, 0, 40, 4)) {
		t.Fatal("suffix-replay recovery differs from offline scan")
	}
}

// TestChunkOrphanCleanup: a sidecar past a gap in the index sequence is
// a rename that beat its batch's dir fsync into a crash; loadChunks
// keeps the contiguous prefix, deletes the orphan and any stray tmp
// files, and leaves the orphaned edges to WAL replay.
func TestChunkOrphanCleanup(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	edges := testLog(rng, 15, 120)
	cfg := Config{Omega: 15, Precision: 4, ChunkEdges: 40, CheckpointEvery: -1}
	dir := t.TempDir()
	ingestAll(t, dir, edges, cfg) // seals chunks 0,1,2
	if err := os.Rename(chunkFileName(dir, 2), chunkFileName(dir, 4)); err != nil {
		t.Fatal(err)
	}
	stray := chunkFileName(dir, 1) + ".tmp"
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	chunks, err := loadChunks(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("loaded %d chunks, want the contiguous prefix of 2", len(chunks))
	}
	for _, name := range []string{chunkFileName(dir, 4), stray} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("%s survived cleanup", filepath.Base(name))
		}
	}
	// Full recovery over the pruned directory still sees every edge: the
	// orphan's edges come back through the WAL.
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	if !bytes.Equal(summaryBytes(t, recovered), offlineBytes(t, edges, 0, 15, 4)) {
		t.Fatal("recovery after orphan cleanup differs from offline scan")
	}
}

// TestDirSyncsObserved: the durability paths — checkpoint rename, WAL
// rotation, sidecar batches, covered-segment deletion — must each fsync
// the directory; the shared counter observing them proves the calls are
// wired (the old code never synced directories at all).
func TestDirSyncsObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	edges := testLog(rng, 10, 200)
	reg := obs.NewRegistry()
	cfg := Config{Omega: 10, Precision: 4, ChunkEdges: 20, CheckpointEvery: -1,
		SegmentBytes: 512, SyncEvery: -1, Registry: reg}
	ingestAll(t, t.TempDir(), edges, cfg)
	snap := reg.Snapshot()
	if v := snap[MetricDirSyncs].(int64); v < 3 {
		t.Fatalf("only %d directory fsyncs across rotate+sidecar+checkpoint+delete paths", v)
	}
}
