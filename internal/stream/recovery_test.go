package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
)

// Crash/recovery determinism: kill the ingester mid-stream (simulated by
// abandoning it without Close and corrupting or truncating the WAL tail
// the way a power cut would), reopen the directory, and the recovered
// sketch state must be byte-identical to an uninterrupted run over the
// same surviving prefix — and to the offline ComputeApprox over it.

// ingestAll runs a fresh ingester over edges and returns the final
// published summaries.
func ingestAll(t *testing.T, dir string, edges []graph.Interaction, cfg Config) *core.ApproxSummaries {
	t.Helper()
	var published *core.ApproxSummaries
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return published
}

// segFiles lists the WAL segments in dir, sorted.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// wipeDurable deletes the chunk sidecars and checkpoint files from dir,
// leaving only the WAL — the state a crash leaves behind when it lands
// before the first compactor pass. WAL-tearing tests need this: after a
// clean Close every edge is durable in sidecars, so a torn WAL tail
// would otherwise lose nothing.
func wipeDurable(t *testing.T, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, chunkFilePattern))
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, filepath.Join(dir, CheckpointName), filepath.Join(dir, CheckpointMetaName))
	for _, name := range names {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
}

// recoverPublished reopens dir and returns the recovery checkpoint that
// New publishes from the replayed WAL.
func recoverPublished(t *testing.T, dir string, cfg Config) (*core.ApproxSummaries, *Ingester) {
	t.Helper()
	var published *core.ApproxSummaries
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return published, in
}

// TestRecoverySegmentBoundary: crash exactly at a segment boundary (all
// segments intact, process simply gone). Replay recovers everything.
func TestRecoverySegmentBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	edges := testLog(rng, 30, 600)
	cfg := Config{Omega: 20, Precision: 4, ChunkEdges: 50, CheckpointEvery: -1, SegmentBytes: 512}
	dir := t.TempDir()
	// Run to completion; Close syncs every segment. "Crash" = no process
	// state survives, only the directory.
	ingestAll(t, dir, edges, cfg)
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	if recovered == nil {
		t.Fatal("no recovery checkpoint published")
	}
	want := offlineBytes(t, edges, 0, 20, 4)
	if !bytes.Equal(summaryBytes(t, recovered), want) {
		t.Fatal("recovered summaries differ from offline scan over the full log")
	}
}

// TestRecoveryMidBatchTorn: crash mid-record — the final segment ends in
// a half-written frame. Replay truncates the tear and the recovered
// state matches an uninterrupted run over the surviving prefix, which
// matches the offline scan.
func TestRecoveryMidBatchTorn(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	edges := testLog(rng, 25, 500)
	cfg := Config{Omega: 15, Precision: 4, ChunkEdges: 40, CheckpointEvery: -1, SegmentBytes: 1 << 20}
	dir := t.TempDir()
	ingestAll(t, dir, edges, cfg)
	wipeDurable(t, dir)
	segs := segFiles(t, dir)
	final := segs[len(segs)-1]
	data, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-record: cut 60% of the way into the file, almost
	// certainly splitting a frame.
	cut := len(data) * 6 / 10
	if cut < len(walMagic) {
		cut = len(walMagic)
	}
	if err := os.WriteFile(final, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	// First recovery: replay the torn log, note what survived.
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if recovered == nil {
		t.Fatal("no recovery checkpoint published")
	}
	var survived []graph.Interaction
	in2.inc.View().EachEdge(func(e graph.Interaction) { survived = append(survived, e) })
	if len(survived) == 0 || len(survived) >= len(edges) {
		t.Fatalf("torn replay survived %d of %d edges", len(survived), len(edges))
	}
	// The surviving sequence must be a strict prefix of the emitted one.
	for i, e := range survived {
		if e != edges[i] {
			t.Fatalf("survivor %d = %+v, want %+v", i, e, edges[i])
		}
	}
	if err := in2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Recovered state == offline scan over the prefix == a fresh
	// uninterrupted ingester fed exactly the prefix.
	want := offlineBytes(t, survived, 0, 15, 4)
	if !bytes.Equal(summaryBytes(t, recovered), want) {
		t.Fatal("recovered summaries differ from offline scan over surviving prefix")
	}
	fresh := ingestAll(t, t.TempDir(), survived, cfg)
	if !bytes.Equal(summaryBytes(t, fresh), want) {
		t.Fatal("uninterrupted run over the prefix differs")
	}
	// And a third recovery of the (now truncated+resealed) log is stable.
	again, in3 := recoverPublished(t, dir, cfg)
	defer in3.Close(ctx)
	if !bytes.Equal(summaryBytes(t, again), want) {
		t.Fatal("second recovery differs from first")
	}
}

// TestRecoveryResumeAppending: recover from a torn log, stream more
// edges, and the final state matches the offline scan over prefix +
// continuation — replay and live intake compose seamlessly.
func TestRecoveryResumeAppending(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	edges := testLog(rng, 20, 400)
	half := len(edges) / 2
	cfg := Config{Omega: 25, Precision: 4, ChunkEdges: 30, CheckpointEvery: -1}
	dir := t.TempDir()
	ingestAll(t, dir, edges[:half], cfg)
	wipeDurable(t, dir)
	// Tear a few bytes off the final segment: lose the last record(s).
	segs := segFiles(t, dir)
	final := segs[len(segs)-1]
	st, err := os.Stat(final)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(final, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	var published *core.ApproxSummaries
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []graph.Interaction
	in.inc.View().EachEdge(func(e graph.Interaction) { prefix = append(prefix, e) })
	// Continue the stream from after the surviving prefix.
	for _, e := range edges[half:] {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	full := append(append([]graph.Interaction(nil), prefix...), edges[half:]...)
	if !bytes.Equal(summaryBytes(t, published), offlineBytes(t, full, 0, 25, 4)) {
		t.Fatal("resume-after-recovery state differs from offline scan")
	}
}

// TestRecoveryDropsReplayedStragglers: after recovery, an arrival at or
// below the recovered tail timestamp is already covered by replayed
// history and must drop rather than double-count.
func TestRecoveryDropsReplayedStragglers(t *testing.T) {
	cfg := Config{Omega: 10, Precision: 4, CheckpointEvery: -1}
	dir := t.TempDir()
	seedEdges := []graph.Interaction{{Src: 0, Dst: 1, At: 10}, {Src: 1, Dst: 2, At: 20}}
	ingestAll(t, dir, seedEdges, cfg)
	_, in := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A straggler from before the recovered tail must not re-enter.
	if err := in.Push(graph.Interaction{Src: 2, Dst: 0, At: 15}); err != nil {
		t.Fatal(err)
	}
	if err := in.Push(graph.Interaction{Src: 2, Dst: 0, At: 21}); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.ReorderDrops != 1 {
		t.Fatalf("drops = %d, want 1 (the pre-tail straggler)", st.ReorderDrops)
	}
	if st.Emitted != 3 {
		t.Fatalf("emitted = %d, want 3", st.Emitted)
	}
}

// TestRecoveryCorruptCRC: a bit flip inside a record payload of the
// final segment truncates from that record on (CRC catches it), and the
// prefix before the flip survives.
func TestRecoveryCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{SyncEvery: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := w.Append([]graph.Interaction{{Src: 0, Dst: 1, At: graph.Time(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the 6th record's payload and flip a bit: frame-walk from the
	// header like replay does.
	off := len(walMagic)
	for i := 0; i < 5; i++ {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		off += walFrameBytes + plen
	}
	data[off+walFrameBytes] ^= 0x01
	// Sanity: the flip must actually break the stored CRC.
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	if crc32.Checksum(data[off+walFrameBytes:off+walFrameBytes+plen], walCRC) == binary.LittleEndian.Uint32(data[off+4:]) {
		t.Fatal("bit flip did not change the checksum")
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenWAL(dir, WALConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("recovered %d edges, want the 5 before the flip", len(got))
	}
}

// TestCleanRestartKeepsCheckpoint: a restart whose recovery fold returns
// the seeded checkpoint unchanged publishes it without rewriting
// checkpoint.irx (same inode, same metadata bytes) and still advances the
// covered-edge clock; a restart that changes what the checkpoint covers
// — a replayed WAL suffix, a grown node range, an advanced epoch, a base
// moved by retirement — rewrites it. Every case publishes, and leaves on
// disk, the bytes of the offline scan over what it claims.
func TestCleanRestartKeepsCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	edges := testLog(rng, 30, 600)
	base := Config{Omega: 20, Precision: 4, ChunkEdges: 50, CheckpointEvery: -1, SegmentBytes: 1 << 20}
	// restart is what a prepared directory is reopened with, and what the
	// recovery checkpoint must then cover: the offline scan of covered
	// over numNodes, with the emit clock at emitted.
	type restart struct {
		cfg      Config
		covered  []graph.Interaction
		numNodes int
		emitted  int
	}
	cases := []struct {
		name    string
		prepare func(t *testing.T, dir string) restart
		rewrite bool
	}{
		{"clean", func(t *testing.T, dir string) restart {
			ingestAll(t, dir, edges, base)
			return restart{base, edges, 0, len(edges)}
		}, false},
		{"wal-suffix", func(t *testing.T, dir string) restart {
			// Checkpoint the first half, stream the rest, then put the
			// first checkpoint and its sidecars back: the WAL (one active
			// segment, never compacted away) holds the suffix.
			cfg := base
			cfg.Dir = dir
			in, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			half := len(edges) / 2
			for _, e := range edges[:half] {
				if err := in.Push(e); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := in.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			saved := map[string][]byte{}
			for _, name := range []string{CheckpointName, CheckpointMetaName} {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				saved[name] = raw
			}
			kept, err := filepath.Glob(filepath.Join(dir, chunkFilePattern))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range edges[half:] {
				if err := in.Push(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := in.Close(ctx); err != nil {
				t.Fatal(err)
			}
			all, err := filepath.Glob(filepath.Join(dir, chunkFilePattern))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range all {
				if !slices.Contains(kept, name) {
					if err := os.Remove(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			for name, raw := range saved {
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return restart{base, edges, 0, len(edges)}
		}, true},
		{"grown-nodes", func(t *testing.T, dir string) restart {
			ingestAll(t, dir, edges, base)
			cfg := base
			cfg.NumNodes = 40
			return restart{cfg, edges, 40, len(edges)}
		}, true},
		{"advanced-epoch", func(t *testing.T, dir string) restart {
			ingestAll(t, dir, edges, base)
			cfg := base
			cfg.Epoch = 1
			return restart{cfg, edges, 0, len(edges)}
		}, true},
		{"retired-base", func(t *testing.T, dir string) restart {
			// runRetained's restart retires chunks 4 and 5 (see
			// TestRecoveryWithRetiredPrefix).
			retained, _ := runRetained(t, dir, nil)
			return restart{retainedConfig(nil), retained[150:], 16, len(retained)}
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			r := c.prepare(t, dir)
			ckptPath, metaPath := filepath.Join(dir, CheckpointName), filepath.Join(dir, CheckpointMetaName)
			before, err := os.Stat(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			metaBefore, err := os.ReadFile(metaPath)
			if err != nil {
				t.Fatal(err)
			}
			recovered, in := recoverPublished(t, dir, r.cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			defer in.Close(ctx)
			if recovered == nil {
				t.Fatal("no recovery checkpoint published")
			}
			st := in.Stats()
			if c.name == "wal-suffix" && st.RecoveredWALEdges == 0 {
				t.Fatal("restart replayed no WAL suffix")
			}
			if st.CoveredEdges != int64(r.emitted) {
				t.Fatalf("covered-edge clock at %d after recovery, want %d", st.CoveredEdges, r.emitted)
			}
			after, err := os.Stat(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			metaAfter, err := os.ReadFile(metaPath)
			if err != nil {
				t.Fatal(err)
			}
			if rewritten := !os.SameFile(before, after); rewritten != c.rewrite {
				t.Fatalf("checkpoint rewritten = %v, want %v", rewritten, c.rewrite)
			}
			if !c.rewrite && !bytes.Equal(metaBefore, metaAfter) {
				t.Fatal("checkpoint metadata rewritten on a clean restart")
			}
			want := offlineBytes(t, r.covered, r.numNodes, r.cfg.Omega, r.cfg.Precision)
			if !bytes.Equal(summaryBytes(t, recovered), want) {
				t.Fatal("published recovery state differs from the offline scan")
			}
			ckpt, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckpt, want) {
				t.Fatal("checkpoint.irx differs from the offline scan")
			}
		})
	}
}
