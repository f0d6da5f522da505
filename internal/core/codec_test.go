package core

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"ipin/internal/graph"
	"ipin/internal/vhll"
)

func TestExactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l := randomLog(rng, 80, 800)
	orig := ComputeExact(l, 150)

	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadExactSummaries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Omega != orig.Omega || got.NumNodes() != orig.NumNodes() {
		t.Fatalf("header mismatch: %d/%d vs %d/%d", got.Omega, got.NumNodes(), orig.Omega, orig.NumNodes())
	}
	for u := range orig.Phi {
		a, b := orig.Phi[u], got.Phi[u]
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("node %d: %v != %v", u, a, b)
		}
	}
}

func TestApproxRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	l := randomLog(rng, 120, 1500)
	orig, err := ComputeApprox(l, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadApproxSummaries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Omega != orig.Omega || got.Precision != orig.Precision || got.NumNodes() != orig.NumNodes() {
		t.Fatalf("header mismatch: %+v-ish", got)
	}
	// Every estimate and the oracle output must be bit-identical.
	for u := 0; u < l.NumNodes; u++ {
		if got.EstimateIRS(graph.NodeID(u)) != orig.EstimateIRS(graph.NodeID(u)) {
			t.Fatalf("node %d estimate changed across round trip", u)
		}
	}
	seeds := []graph.NodeID{1, 5, 9}
	if got.SpreadEstimate(seeds) != orig.SpreadEstimate(seeds) {
		t.Fatal("spread changed across round trip")
	}
}

func TestApproxRoundTripEmpty(t *testing.T) {
	orig, err := ComputeApprox(graph.New(5), 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadApproxSummaries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 5 || got.EntryCount() != 0 {
		t.Fatalf("empty round trip: %d nodes, %d entries", got.NumNodes(), got.EntryCount())
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadExactSummaries(bytes.NewReader([]byte("not a summary"))); err == nil {
		t.Error("garbage accepted as exact summaries")
	}
	if _, err := ReadApproxSummaries(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted as approx summaries")
	}
}

func TestCodecRejectsKindMismatch(t *testing.T) {
	l := fig1a()
	exact := ComputeExact(l, 3)
	var buf bytes.Buffer
	if _, err := exact.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadApproxSummaries(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("exact payload accepted as approx summaries")
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	l := fig1a()
	approx, err := ComputeApprox(l, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := approx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadApproxSummaries(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestCodecRejectsCorruptedEntry(t *testing.T) {
	l := fig1a()
	exact := ComputeExact(l, 3)
	var buf bytes.Buffer
	if _, err := exact.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip bytes in the body; most flips must be caught (out-of-range
	// node, bad varint, duplicate). A few may decode to a different but
	// structurally valid summary — that is acceptable for a checksummed-
	// free format, so only assert that no flip panics.
	for i := 6; i < len(data); i++ {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0xff
		_, _ = ReadExactSummaries(bytes.NewReader(corrupted))
	}
}

// backfillSummaries returns the summaries of a uniform log shaped like
// the backfill benchmark's: five interactions per node over distinct
// ticks, ω one percent of the span.
func backfillSummaries(t *testing.T, nodes int) *ApproxSummaries {
	t.Helper()
	edges := 5 * nodes
	l := randomLog(rand.New(rand.NewSource(int64(nodes))), nodes, edges)
	sum, err := ComputeApprox(l, int64(edges/100), DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestCodecAllocs pins the IRX1 approx codec's allocation contract (no
// race instrumentation): WriteTo allocates the same at 2k and at 20k
// nodes — one payload buffer for every sketch, none per node — and
// ReadApproxSummaries allocates at most five times per non-nil sketch,
// the sketch's own storage, beyond what an all-nil table of the same
// size costs.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var writes []float64
	for _, nodes := range []int{2000, 20000} {
		sum := backfillSummaries(t, nodes)
		writes = append(writes, testing.AllocsPerRun(5, func() {
			if _, err := sum.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}))

		var buf bytes.Buffer
		if _, err := sum.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		empty := &ApproxSummaries{Omega: sum.Omega, Precision: sum.Precision, Sketches: make([]*vhll.Sketch, len(sum.Sketches))}
		var emptyBuf bytes.Buffer
		if _, err := empty.WriteTo(&emptyBuf); err != nil {
			t.Fatal(err)
		}
		read := func(data []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := ReadApproxSummaries(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			})
		}
		nonNil := 0
		for _, sk := range sum.Sketches {
			if sk != nil {
				nonNil++
			}
		}
		// The reused payload buffer doubles up to the largest payload: a
		// constant handful of allocations, not one per sketch.
		const payloadGrowth = 16
		extra := read(buf.Bytes()) - read(emptyBuf.Bytes())
		t.Logf("%d nodes: WriteTo %.0f allocs; ReadApproxSummaries %.0f allocs over an all-nil table for %d non-nil sketches",
			nodes, writes[len(writes)-1], extra, nonNil)
		if extra > float64(5*nonNil+payloadGrowth) {
			t.Errorf("%d nodes: ReadApproxSummaries makes %.0f allocations for %d non-nil sketches, want <= 5 per sketch + %d",
				nodes, extra, nonNil, payloadGrowth)
		}
	}
	if writes[0] != writes[1] {
		t.Errorf("WriteTo allocates %.0f times at 2k nodes but %.0f at 20k: allocations grow with the node count", writes[0], writes[1])
	}
}
