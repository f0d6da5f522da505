package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
)

// Retention tests: with Config.Retain set, sketch memory and sidecar disk
// must track the window instead of the stream, the accounting surfaces
// (Stats, Health, metrics, checkpoint metadata) must stay truthful after
// files are deleted, and recovery over a directory with a retired prefix
// must replay to the same published bytes the retention rule produces in
// an uninterrupted run.

// retainedEdges is the deterministic two-phase workload the retention
// tests share: 200 edges at ticks 1..200 over 16 nodes, 25-edge chunk
// alignment, so phase one seals chunks 0..3 and phase two chunks 4..7.
func retainedEdges() []graph.Interaction {
	edges := make([]graph.Interaction, 200)
	for i := range edges {
		edges[i] = graph.Interaction{Src: graph.NodeID(i % 16), Dst: graph.NodeID((i + 7) % 16), At: graph.Time(i + 1)}
	}
	return edges
}

func retainedConfig(reg *obs.Registry) Config {
	return Config{
		Omega: 25, Precision: 4, NumNodes: 16,
		ChunkEdges: 25, Retain: 50,
		CheckpointEvery: -1, SyncEvery: -1,
		Registry: reg,
	}
}

// runRetained streams the workload in two checkpointed phases and closes:
// the second checkpoint's horizon (capped at the durable coverage of the
// first) retires phase one's four chunks and deletes their sidecars.
func runRetained(t *testing.T, dir string, reg *obs.Registry) ([]graph.Interaction, *core.ApproxSummaries) {
	t.Helper()
	edges := retainedEdges()
	var published *core.ApproxSummaries
	cfg := retainedConfig(reg)
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, half := range [][]graph.Interaction{edges[:100], edges[100:]} {
		for _, e := range half {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return edges, published
}

// diskWithoutRetention streams the workload's two checkpointed phases
// with Retain = 0 and returns the Health "disk" map after the second.
func diskWithoutRetention(t *testing.T, edges []graph.Interaction) map[string]any {
	t.Helper()
	cfg := retainedConfig(nil)
	cfg.Dir, cfg.Retain = t.TempDir(), 0
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in.Close(ctx)
	for _, half := range [][]graph.Interaction{edges[:100], edges[100:]} {
		for _, e := range half {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return diskOf(t, in)
}

// diskOf unpacks the Health "disk" sub-map.
func diskOf(t *testing.T, in *Ingester) map[string]any {
	t.Helper()
	d, ok := in.Health()["disk"].(map[string]any)
	if !ok {
		t.Fatal("Health has no disk map")
	}
	return d
}

// TestRetentionBoundsDiskAndAccounting: the second checkpoint retires the
// first phase's chunks; afterwards the sidecar count is back to four, the
// directory-measured chunk bytes equal written-minus-retired (the
// accounting bugfix: Health and the counter pair must agree with the
// files actually on disk), and the published summaries are byte-identical
// to the offline scan over the retained suffix alone.
func TestRetentionBoundsDiskAndAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	edges := retainedEdges()
	dir := t.TempDir()
	var published *core.ApproxSummaries
	cfg := retainedConfig(reg)
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, e := range edges[:100] {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	disk1 := diskOf(t, in)
	if got := disk1["chunk_files"].(int); got != 4 {
		t.Fatalf("phase 1: %d sidecars, want 4", got)
	}
	if st := in.Stats(); st.RetiredChunks != 0 {
		t.Fatalf("phase 1 retired %d chunks; the first checkpoint has no durable coverage to retire against", st.RetiredChunks)
	}

	for _, e := range edges[100:] {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.RetiredChunks != 4 || st.RetiredEdges != 100 {
		t.Fatalf("retired %d chunks / %d edges, want 4 / 100", st.RetiredChunks, st.RetiredEdges)
	}
	if st.Emitted != 200 || st.CoveredEdges != 200 {
		t.Fatalf("emit clocks moved: emitted %d covered %d, want 200/200 (they count retired edges too)", st.Emitted, st.CoveredEdges)
	}
	disk2 := diskOf(t, in)
	if got := disk2["chunk_files"].(int); got != 4 {
		t.Fatalf("after retirement: %d sidecars on disk, want the 4 retained", got)
	}
	snap := reg.Snapshot()
	if v := snap[MetricChunksRetired].(int64); v != 4 {
		t.Fatalf("%s = %d, want 4", MetricChunksRetired, v)
	}
	retiredBytes := snap[MetricChunkRetiredBytes].(int64)
	if retiredBytes <= 0 {
		t.Fatalf("%s = %d, want > 0", MetricChunkRetiredBytes, retiredBytes)
	}
	// The truthfulness identity: bytes on disk = bytes ever written −
	// bytes reclaimed. A stale Health that kept counting deleted files, or
	// a counter that missed a deletion, breaks this exactly.
	written := snap[MetricChunkFileBytes].(int64)
	if got := disk2["chunk_bytes"].(int64); got != written-retiredBytes {
		t.Fatalf("disk chunk_bytes = %d, want written %d − retired %d = %d", got, written, retiredBytes, written-retiredBytes)
	}
	// Control: the same stream without retention. Retirement is the only
	// difference, so it holds exactly the retained run's sidecar bytes
	// plus the reclaimed ones, and more bytes on disk in total.
	ctl := diskWithoutRetention(t, edges)
	if got, want := ctl["chunk_bytes"].(int64), disk2["chunk_bytes"].(int64)+retiredBytes; got != want {
		t.Fatalf("Retain=0 control holds %d sidecar bytes, want retained %d + reclaimed %d", got, disk2["chunk_bytes"], retiredBytes)
	}
	if c, d := ctl["total_bytes"].(int64), disk2["total_bytes"].(int64); c <= d {
		t.Fatalf("total_bytes %d with retention, %d without: retirement reclaimed nothing", d, c)
	}
	if v := snap[MetricSketchBytes].(int64); v <= 0 {
		t.Fatalf("%s = %d, want > 0", MetricSketchBytes, v)
	}
	h := in.Health()
	if h["retired_chunks"].(int64) != 4 || h["retired_edges"].(int64) != 100 {
		t.Fatalf("Health retirement keys = %v / %v, want 4 / 100", h["retired_chunks"], h["retired_edges"])
	}

	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Published coverage is the retained suffix, byte-identical to the
	// offline scan over exactly those edges.
	want := offlineBytes(t, edges[100:], 16, 25, 4)
	if !bytes.Equal(summaryBytes(t, published), want) {
		t.Fatal("published summaries differ from offline scan over the retained suffix")
	}
	var meta struct {
		FirstChunk   int `json:"first_chunk"`
		RetiredEdges int `json:"retired_edges"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.FirstChunk != 4 || meta.RetiredEdges != 100 {
		t.Fatalf("meta records first_chunk=%d retired_edges=%d, want 4 / 100", meta.FirstChunk, meta.RetiredEdges)
	}
}

// TestRecoveryWithRetiredPrefix: reopening a directory whose chunk prefix
// was retired (sidecars 0..3 deleted, metadata floor at 4) must rebuild
// from the retained sidecars alone, re-apply the retention rule — with
// everything durable the horizon now reaches LastAt−Retain+1, retiring
// two more chunks exactly as an uninterrupted run's next checkpoint
// would — and publish bytes identical to the offline scan over the range
// its own metadata claims.
func TestRecoveryWithRetiredPrefix(t *testing.T) {
	dir := t.TempDir()
	edges, published := runRetained(t, dir, nil)
	if !bytes.Equal(summaryBytes(t, published), offlineBytes(t, edges[100:], 16, 25, 4)) {
		t.Fatal("pre-restart published summaries differ from offline scan over retained suffix")
	}
	for c := 0; c < 4; c++ {
		if _, err := os.Stat(chunkFileName(dir, c)); !os.IsNotExist(err) {
			t.Fatalf("retired sidecar %d still on disk", c)
		}
	}

	cfg := retainedConfig(nil)
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	if recovered == nil {
		t.Fatal("no recovery checkpoint published")
	}
	st := in2.Stats()
	if st.RecoveredChunkEdges != 100 || st.RecoveredWALEdges != 0 {
		t.Fatalf("recovered %d chunk / %d wal edges, want 100 / 0", st.RecoveredChunkEdges, st.RecoveredWALEdges)
	}
	// Recovery retirement: horizon 200−50+1 = 151 sheds chunks 4 and 5.
	if st.RetiredChunks != 2 || st.RetiredEdges != 50 {
		t.Fatalf("recovery retired %d chunks / %d edges, want 2 / 50", st.RetiredChunks, st.RetiredEdges)
	}
	var meta struct {
		FirstChunk   int   `json:"first_chunk"`
		RetiredEdges int   `json:"retired_edges"`
		Edges        int64 `json:"edges"`
		LastAt       int64 `json:"last_at"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.FirstChunk != 6 || meta.RetiredEdges != 150 || meta.Edges != 200 || meta.LastAt != 200 {
		t.Fatalf("recovery meta = %+v, want first_chunk=6 retired=150 edges=200 last_at=200", meta)
	}
	// The identity gate: published bytes == offline scan over exactly the
	// range the metadata claims, and the checkpoint file agrees.
	want := offlineBytes(t, edges[meta.RetiredEdges:], 16, 25, 4)
	if !bytes.Equal(summaryBytes(t, recovered), want) {
		t.Fatal("recovered summaries differ from offline scan over the claimed retained range")
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, want) {
		t.Fatal("checkpoint.irx differs from offline scan over the claimed retained range")
	}
	// The newly retired sidecars are deleted before New returns (the
	// recovery checkpoint is synchronous).
	for c := 4; c < 6; c++ {
		if _, err := os.Stat(chunkFileName(dir, c)); !os.IsNotExist(err) {
			t.Fatalf("recovery-retired sidecar %d still on disk", c)
		}
	}
}

// TestRecoveryHealsRetirementLeftover: a crash between the checkpoint
// metadata landing (floor moved) and the sidecar deletions leaves
// below-floor files behind. loadChunks must treat them as leftovers —
// delete, not load — and recovery must proceed exactly as if the
// deletion had completed.
func TestRecoveryHealsRetirementLeftover(t *testing.T) {
	dir := t.TempDir()
	edges, _ := runRetained(t, dir, nil)
	// Resurrect a below-floor sidecar: the state a crash mid-deletion
	// leaves when chunk 3's unlink never happened.
	if err := writeChunkFile(dir, 3, 16, edges[75:100], &metrics{}); err != nil {
		t.Fatal(err)
	}

	cfg := retainedConfig(nil)
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	if _, err := os.Stat(chunkFileName(dir, 3)); !os.IsNotExist(err) {
		t.Fatal("below-floor leftover survived recovery")
	}
	if recovered == nil {
		t.Fatal("no recovery checkpoint published")
	}
	// Same outcome as the clean retired-prefix recovery: the leftover
	// neither rejoins the state nor perturbs the retained fold.
	st := in2.Stats()
	if st.RecoveredChunkEdges != 100 || st.RetiredChunks != 2 {
		t.Fatalf("recovered %d chunk edges / retired %d chunks, want 100 / 2", st.RecoveredChunkEdges, st.RetiredChunks)
	}
	if !bytes.Equal(summaryBytes(t, recovered), offlineBytes(t, edges[150:], 16, 25, 4)) {
		t.Fatal("recovery after leftover cleanup differs from offline scan over the retained range")
	}
}

// TestRecoveryRebuildsTopKView: recovered edges bypass the emit path, so
// without an explicit rebuild the profile table after a restart would be
// empty and the recovery checkpoint would publish a top-k view with zero
// entries while claiming full coverage. The rebuild feeds the retained
// chunks back through the profiles, and window estimates depend only on
// the edges inside the window, so the recovered view must equal the
// pre-restart one entry for entry.
func TestRecoveryRebuildsTopKView(t *testing.T) {
	dir := t.TempDir()
	edges := retainedEdges()
	cfg := retainedConfig(nil)
	cfg.Dir = dir
	cfg.ProfileWindow = 50
	cfg.TopK = 3
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, half := range [][]graph.Interaction{edges[:100], edges[100:]} {
		for _, e := range half {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before := in.TopK()
	if before == nil || len(before.Entries) == 0 {
		t.Fatalf("pre-restart TopK view = %+v, want entries", before)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	cfg2 := retainedConfig(nil)
	cfg2.Dir = dir
	cfg2.ProfileWindow = 50
	cfg2.TopK = 3
	in2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close(ctx)
	after := in2.TopK()
	if after == nil {
		t.Fatal("no TopK view published by the recovery checkpoint")
	}
	if len(after.Entries) == 0 {
		t.Fatal("recovered TopK view has no entries (profiles not rebuilt)")
	}
	if !reflect.DeepEqual(after.Entries, before.Entries) {
		t.Fatalf("recovered TopK entries = %+v, want pre-restart %+v", after.Entries, before.Entries)
	}
	if after.CoveredEdges != before.CoveredEdges || after.LastAt != before.LastAt {
		t.Fatalf("recovered TopK provenance = %d/%d, want %d/%d",
			after.CoveredEdges, after.LastAt, before.CoveredEdges, before.LastAt)
	}
}
