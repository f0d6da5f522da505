package stream

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
)

// legacyDir is a state directory written by the sketch-carrying sidecar
// writer: testLog(rand.NewSource(61), 30, 400) ingested with
// legacyConfig and closed cleanly, leaving eight ICHK0001 sidecars, the
// checkpoint and its metadata, and the active WAL segment.
const legacyDir = "testdata/ichk0001"

func legacyConfig() Config {
	return Config{Omega: 30, Precision: 4, ChunkEdges: 50, CheckpointEvery: -1}
}

// copyLegacyDir copies the legacy state directory into a fresh one.
func copyLegacyDir(t *testing.T) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(legacyDir, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("legacy fixture: %v (%d files)", err, len(names))
	}
	dir := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// chunkHeaders returns the header of every sidecar in dir, by index.
func chunkHeaders(t *testing.T, dir string) []string {
	t.Helper()
	names, err := listChunkFiles(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	heads := make([]string, len(names))
	for i, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		heads[i] = string(data[:len(chunkMagic)])
	}
	return heads
}

// TestICHK0001Recovery: a directory of legacy ICHK0001 sidecars recovers
// byte-identically to the offline scan. With its checkpoint the fold
// cache is seeded and no chunk is rescanned; without it the recovery
// fold rescans every chunk from its edges. A stream resumed on it writes
// ICHK0002 sidecars next to the legacy ones and still recovers exactly.
func TestICHK0001Recovery(t *testing.T) {
	edges := testLog(rand.New(rand.NewSource(61)), 30, 400)
	cfg := legacyConfig()
	want := offlineBytes(t, edges, 0, 30, 4)

	for _, seeded := range []bool{true, false} {
		dir := copyLegacyDir(t)
		if !seeded {
			if err := os.Remove(filepath.Join(dir, CheckpointName)); err != nil {
				t.Fatal(err)
			}
		}
		published, in := recoverPublished(t, dir, cfg)
		st := in.Stats()
		if st.RecoveredChunkEdges != int64(len(edges)) || st.RecoveredWALEdges != 0 {
			t.Fatalf("seeded=%v: recovered %d chunk / %d wal edges, want %d / 0",
				seeded, st.RecoveredChunkEdges, st.RecoveredWALEdges, len(edges))
		}
		if !bytes.Equal(summaryBytes(t, published), want) {
			t.Fatalf("seeded=%v: ICHK0001 recovery differs from the offline scan", seeded)
		}
		wantRescans := int64(0)
		if !seeded {
			wantRescans = 8
		}
		if got := in.inc.Rescans(); got != wantRescans {
			t.Fatalf("seeded=%v: %d chunks rescanned, want %d", seeded, got, wantRescans)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := in.Close(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}

	dir := copyLegacyDir(t)
	var published *core.ApproxSummaries
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	more := testLog(rand.New(rand.NewSource(62)), 30, 120)
	for i := range more {
		more[i].At += edges[len(edges)-1].At
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
	wantFull := offlineBytes(t, full, 0, 30, 4)
	if !bytes.Equal(summaryBytes(t, published), wantFull) {
		t.Fatal("stream resumed on ICHK0001 sidecars differs from the offline scan")
	}
	heads := chunkHeaders(t, dir)
	if len(heads) <= 8 {
		t.Fatalf("%d sidecars after resuming, want more than the 8 legacy ones", len(heads))
	}
	for i, h := range heads {
		want := chunkMagic
		if i < 8 {
			want = chunkMagicV1
		}
		if h != want {
			t.Fatalf("sidecar %d headed %q, want %q", i, h, want)
		}
	}
	recovered, in2 := recoverPublished(t, dir, legacyConfig())
	defer in2.Close(ctx)
	if !bytes.Equal(summaryBytes(t, recovered), wantFull) {
		t.Fatal("mixed ICHK0001/ICHK0002 recovery differs from the offline scan")
	}
	if got := in2.inc.Rescans(); got != 0 {
		t.Fatalf("seeded restart on mixed sidecars rescanned %d chunks", got)
	}
}

// FuzzDecodeChunkPayload: the sidecar payload decoder never panics on
// hostile input, and whatever it accepts re-encodes as an ICHK0002 file
// that decodes to the same chunk.
func FuzzDecodeChunkPayload(f *testing.F) {
	names, err := filepath.Glob(filepath.Join(legacyDir, chunkFilePattern))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[len(chunkMagic)+walFrameBytes:], true)
	}
	edges := testLog(rand.New(rand.NewSource(63)), 20, 40)
	f.Add(encodeChunkFile(3, 20, edges)[len(chunkMagic)+walFrameBytes:], false)
	f.Add(encodeChunkFile(0, 1, []graph.Interaction{{Src: 0, Dst: 0, At: -5}})[len(chunkMagic)+walFrameBytes:], false)
	f.Fuzz(func(t *testing.T, payload []byte, legacy bool) {
		c, err := decodeChunkPayload(payload, legacy)
		if err != nil {
			return
		}
		again, err := parseChunkFile(encodeChunkFile(c.index, c.numNodes, c.edges), c.index)
		if err != nil {
			t.Fatalf("re-encoded chunk rejected: %v", err)
		}
		if again.numNodes != c.numNodes || len(again.edges) != len(c.edges) {
			t.Fatalf("re-encoded chunk %+v, want %+v", again, c)
		}
		for i := range c.edges {
			if again.edges[i] != c.edges[i] {
				t.Fatalf("edge %d: %+v, want %+v", i, again.edges[i], c.edges[i])
			}
		}
	})
}
