package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/serve"
	"ipin/internal/stream"
	"ipin/internal/trace"
)

const (
	// checkpointEvery is benchstream's default interval-checkpoint cadence.
	checkpointEvery = 250 * time.Millisecond
	// freshSamples is how many pushed edges per round carry a timestamp
	// for freshness.
	freshSamples = 1000
	// queryMix is how many requests a round's mix holds before it cycles.
	queryMix = 2048
	// topK is the seed-set size of the greedy top-k the topk_ms metric
	// times.
	topK = 10
	// liveSeconds is how long one live_skewed round's open-loop intake runs.
	liveSeconds = 2
	// liveHistory is how many edges a live_skewed round loads before its
	// open-loop part. Queries then run against a state with history that
	// the open-loop part grows by a fraction, not from empty, so a cold
	// /topk costs about the same all round.
	liveHistory = 120000
)

// streamOpts shapes one single-node pipeline round.
type streamOpts struct {
	model        gen.Model
	nodes, edges int
	history      int     // leading arrivals loaded closed-loop and checkpointed before the timed intake
	edgeRate     float64 // 0 pushes closed-loop
	queryRate    float64 // 0 sends the query mix once, closed-loop, after Close
	skew         int     // arrival displacement in positions; 0 is in order
	profiles     bool    // maintain sliding-window profiles (ProfileWindow = ω)
	idleFlush    time.Duration
}

// observed is what the live path did in the last traced round, replayed
// by the layer probes through the layers' own functions.
type observed struct {
	log        *graph.Log
	omega      int64
	boundaries []int64 // covered edge counts of the round's checkpoints
	walBatch   float64 // edges per WAL record
	pool       [][]graph.NodeID
}

func backfillRound(r *round) error {
	return streamRound(r, streamOpts{model: r.b.model, nodes: 20000 / r.b.scale,
		edges: 100000 / r.b.scale})
}

func liveRound(r *round) error {
	rt := r.b.rates
	live, history := int(rt.EdgesPerSec*liveSeconds)/r.b.scale, liveHistory/r.b.scale
	return streamRound(r, streamOpts{model: r.b.model, nodes: 20000 / r.b.scale,
		edges: history + live, history: history, edgeRate: rt.EdgesPerSec,
		queryRate: rt.QueriesPerSec, skew: 64, profiles: true, idleFlush: liveIdleFlush})
}

// liveIdleFlush replaces the default 250ms IdleFlush on live_skewed. The
// stream never goes quiet there, but a pipeline stall of 250ms (a slow
// fsync, a descheduled process) reads as idleness: the buffer flushes
// with arrivals still queued and the in-slack stragglers behind them
// drop. Drops still count as failures and fail the identity checks.
const liveIdleFlush = 2 * time.Second

// publish is one checkpoint as the serving layer saw it: when the
// generation was installed and how many emitted edges it covers.
type publish struct {
	at      time.Time
	covered int64
}

// coveredAt returns when the first publish covering emit index i was
// installed.
func coveredAt(pubs []publish, i int64) (time.Time, bool) {
	k := sort.Search(len(pubs), func(k int) bool { return pubs[k].covered > i })
	if k == len(pubs) {
		return time.Time{}, false
	}
	return pubs[k].at, true
}

// streamRound pushes one log through stream.Ingester into a serve.Server,
// closes it, and recovers the closed directory.
func streamRound(r *round, o streamOpts) error {
	b, rec := r.b, r.b.rec
	seed := roundSeed(b.seed, r.idx)
	rng := rand.New(rand.NewPCG(seed, 1))

	setupStart := time.Now()
	l, omega, err := makeLog(o.model, o.nodes, o.edges, seed)
	if err != nil {
		return err
	}
	arrival, pos, slack := arrivalOrder(l, o.skew, rng)
	qs, pool := makeQueries(queryMix, l.NumNodes, int64(l.Interactions[0].At), int64(l.Interactions[l.Len()-1].At), rng)
	dir := filepath.Join(b.state, fmt.Sprintf("round-%d", r.idx))
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{CacheSize: 4096, Registry: reg})
	h := srv.Handler()
	var (
		mu      sync.Mutex
		pubs    []publish
		lastSum *core.ApproxSummaries
		badMeta bool
	)
	jr := trace.NewJournal(trace.JournalConfig{Sink: journalTap(func(ev trace.Event) {
		switch ev.Type {
		case trace.EventChunkPersist:
			eventSpan(rec, "stream.persist", r.span, ev)
		case trace.EventCheckpoint:
			eventSpan(rec, "stream.checkpoint", r.span, ev)
		}
	})})
	cfg := stream.Config{
		Dir:             dir,
		Omega:           omega,
		NumNodes:        l.NumNodes,
		Slack:           slack,
		CheckpointEvery: checkpointEvery / time.Duration(b.scale),
		IdleFlush:       o.idleFlush,
		Registry:        reg,
		Journal:         jr,
		Publish: func(s *core.ApproxSummaries) {
			t0 := time.Now()
			srv.LoadApprox(s)
			t1 := time.Now()
			rec.add("serve.load", r.span, t0, t1)
			info, ok := stream.ReadCheckpointInfo(dir)
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				badMeta = true
				return
			}
			pubs = append(pubs, publish{at: t1, covered: info.Edges})
			lastSum = s
		},
	}
	if o.profiles {
		cfg.ProfileWindow = omega
	}
	if r.idx < warmupRounds {
		// Warm-up rounds measure the heap at a fixed point: the whole
		// intake sealed and folded by one forced checkpoint, the pipeline
		// still open. Interval checkpoints would seal partial chunks at
		// moments that vary from run to run.
		cfg.CheckpointEvery = -1
	}
	in, err := stream.New(cfg)
	if err != nil {
		return err
	}
	setup := time.Since(setupStart)

	// History: loaded closed-loop and made durable and served before the
	// timed intake; no metric times it.
	var pushFailed int64
	for _, e := range arrival[:o.history] {
		if err := in.Push(e); err != nil {
			pushFailed++
		}
	}
	if o.history > 0 {
		if err := in.Checkpoint(context.Background()); err != nil {
			return err
		}
	}
	timed, pos := arrival[o.history:], pos[o.history:]

	stop := make(chan struct{})
	qi := &issuer{h: h, qs: qs, rate: o.queryRate, rec: rec, parent: r.span, prefix: "serve"}
	var wg sync.WaitGroup
	if o.queryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qi.run(func(ctx context.Context) error { return srv.WaitGeneration(ctx, 1) }, stop)
		}()
	}

	// Intake: the one pusher, closed-loop or paced open-loop.
	type sample struct {
		index int64 // emit index of the pushed edge
		at    time.Time
	}
	every := max(len(timed)/freshSamples, 1)
	var (
		fresh       []sample
		late, pushT []float64
	)
	intake := rec.open("stream.intake", r.span)
	p := pacer{start: time.Now(), rate: o.edgeRate}
	for i, e := range timed {
		if o.edgeRate > 0 {
			due := p.due(i)
			if d := time.Until(due); d > spinBelow {
				time.Sleep(d)
			}
			late = append(late, ms(max(time.Since(due), 0)))
		}
		t0 := time.Now()
		if err := in.Push(e); err != nil {
			pushFailed++
		}
		if r.traced {
			t1 := time.Now()
			rec.add("stream.push", intake, t0, t1)
			pushT = append(pushT, float64(t1.Sub(t0))/float64(time.Microsecond))
		}
		if i%every == 0 {
			fresh = append(fresh, sample{int64(pos[i]), t0})
		}
	}
	intakeEnd := time.Now()
	rec.close(intake)
	st := in.Stats()
	if r.idx < warmupRounds {
		if err := in.Checkpoint(context.Background()); err != nil {
			return err
		}
		b.e2e.add(heapMetric, heapMB())
	}
	closeStart := time.Now()
	closeSpan := rec.open("stream.close", r.span)
	if err := in.Close(context.Background()); err != nil {
		return err
	}
	rec.close(closeSpan)
	closeD := time.Since(closeStart)
	close(stop)
	wg.Wait()
	if o.queryRate == 0 {
		qi.pass()
	}
	final := in.Stats()
	snap := reg.Snapshot()

	n := int64(l.Len())
	mu.Lock()
	defer mu.Unlock()
	r.check(!badMeta, "a publish found no checkpoint metadata")
	// A reorder drop shifts every later emit index down by one; the
	// correctness checks below fail the run, but it still reports.
	lastAt, ok := coveredAt(pubs, final.Emitted-1)
	if !ok {
		return fmt.Errorf("no publish covered all %d emitted edges", final.Emitted)
	}
	start := fresh[0].at
	r.key = lastAt.Sub(start)
	r.addE2E("setup_s", setup.Seconds())
	r.addE2E("accept_eps", float64(len(timed))/intakeEnd.Sub(start).Seconds())
	r.addE2E("queryable_eps", float64(len(timed))/r.key.Seconds())
	var freshMs []float64
	for _, s := range fresh {
		if at, ok := coveredAt(pubs, s.index); ok {
			freshMs = append(freshMs, ms(at.Sub(s.at)))
		}
	}
	r.addPercentiles("freshness", freshMs)
	disk, err := dirBytes(dir, "")
	if err != nil {
		return err
	}
	r.addE2E("disk_bytes_per_edge", float64(disk)/float64(n))

	// Recovery: reopen the closed directory; the first publish is the
	// recovered state being served again.
	var recAt time.Time
	var recSum *core.ApproxSummaries
	rcfg := cfg
	rcfg.Registry, rcfg.Journal = nil, nil
	rcfg.Publish = func(s *core.ApproxSummaries) {
		if recSum == nil {
			recAt, recSum = time.Now(), s
		}
	}
	recStart := time.Now()
	recSpan := rec.open("stream.new", r.span)
	in2, err := stream.New(rcfg)
	if err != nil {
		return err
	}
	rec.close(recSpan)
	newD := time.Since(recStart)
	if err := in2.Close(context.Background()); err != nil {
		return err
	}
	if recSum == nil {
		return fmt.Errorf("recovery published nothing")
	}
	r.addE2E("recovery_s", recAt.Sub(recStart).Seconds())

	r.addE2E("topk_ms", timeTopK(lastSum))
	r.measured = time.Since(setupStart)

	b.attempted += n
	b.failed += pushFailed + final.ReorderDrops
	qi.report(r)

	if r.traced {
		for _, v := range pushT {
			r.addLayer("push_us", v)
		}
		r.addLayer("stream.push_total_s", sum(pushT)/1e6)
		r.addLayer("stream.close_s", closeD.Seconds())
		// Gaps between the generations installed after the first timed
		// Push (the history's comes before it), the first from that Push.
		prev, published := start, 0
		for _, p := range pubs {
			if p.at.Before(start) {
				continue
			}
			r.addLayer("publish_gap_ms", ms(p.at.Sub(prev)))
			prev = p.at
			published++
		}
		r.addLayer("stream.publishes", float64(published))
		r.addLayer("stream.checkpoint_skips", counter(snap, stream.MetricCheckpointSkip))
		persist := rec.durations("stream.persist", r.idx)
		r.layer.addDurations("persist_ms", time.Millisecond, persist)
		r.addLayer("stream.persist_total_ms", ms(sumDur(persist)))
		r.layer.addDurations("checkpoint_ms", time.Millisecond, rec.durations("stream.checkpoint", r.idx))
		r.layer.addDurations("load_ms", time.Millisecond, rec.durations("serve.load", r.idx))
		sidecars, _ := dirBytes(dir, "chunk-*.blk")
		wal, _ := dirBytes(dir, "wal-*.seg")
		r.addLayer("stream.sidecar_bytes", float64(sidecars))
		r.addLayer("stream.wal_bytes", float64(wal))
		r.addLayer("stream.new_s", newD.Seconds())
		r.addLayer("stream.backlog_edges", float64(st.Accepted-st.CoveredEdges))
		r.addLayer("stream.reorder_drops", float64(final.ReorderDrops))
		for _, v := range late {
			r.addLayer("late_ms", v)
		}
		hits, misses := counter(snap, serve.MetricCacheHits), counter(snap, serve.MetricCacheMisses)
		if hits+misses > 0 {
			r.addLayer("serve.cache_hit_ratio", hits/(hits+misses))
		}
		r.addLayer("serve.shed", counter(snap, serve.MetricShed+"*"))
		bounds := make([]int64, len(pubs))
		for i, p := range pubs {
			bounds[i] = p.covered
		}
		b.seen = observed{log: l, omega: omega, boundaries: bounds, pool: pool,
			walBatch: float64(n) / max(counter(snap, stream.MetricWALRecords), 1)}
	}

	// Correctness, outside the timed part: the final checkpoint and the
	// recovered state are the offline scan's bytes, and the last
	// generation answers the query mix as a server loaded with that scan.
	ref, err := reference(b, l, omega)
	if err != nil {
		return err
	}
	var refBuf, recBuf bytes.Buffer
	if _, err := ref.WriteTo(&refBuf); err != nil {
		return err
	}
	if _, err := recSum.WriteTo(&recBuf); err != nil {
		return err
	}
	got, err := os.ReadFile(filepath.Join(dir, stream.CheckpointName))
	if err != nil {
		return err
	}
	r.check(bytes.Equal(got, refBuf.Bytes()), "final checkpoint differs from core.ComputeApprox")
	r.check(bytes.Equal(recBuf.Bytes(), refBuf.Bytes()), "recovered state differs from core.ComputeApprox")
	r.check(final.ReorderDrops == 0, fmt.Sprintf("%d reorder drops", final.ReorderDrops))
	refSrv := serve.New(serve.Config{})
	refSrv.LoadApprox(ref)
	if t := sameAnswers(h, refSrv.Handler(), distinct(qs)); t != "" {
		r.check(false, "final generation answers "+t+" unlike the reference server")
	}
	return nil
}

// reference is the offline one-pass scan the live state must equal. A
// run asked to corrupt it scans only the first three quarters of the log.
func reference(b *bench, l *graph.Log, omega int64) (*core.ApproxSummaries, error) {
	if b.corruptRef {
		l = &graph.Log{NumNodes: l.NumNodes, Interactions: l.Interactions[:l.Len()*3/4]}
	}
	return core.ComputeApprox(l, omega, core.DefaultPrecision)
}

// topkReps is how many times a round times the greedy top-k.
const topkReps = 11

// timeTopK returns the trimmed mean time, in ms, of topkReps greedy top-k
// selections over s, from a collected heap.
func timeTopK(s *core.ApproxSummaries) float64 {
	runtime.GC()
	d := make([]float64, topkReps)
	for i := range d {
		t := time.Now()
		core.TopKApproxSeeds(s, topK)
		d[i] = ms(time.Since(t))
	}
	return trimmedMean(d)
}

// heapMB is HeapInuse after a forced collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

func sumDur(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}
