package serve

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/trace"
)

// store holds the queryable snapshot state. The hot per-node table —
// collapsed HyperLogLog sketches for approx snapshots, summary maps for
// exact ones — is sharded: node u lives in shard u%N at slot u/N, behind
// that shard's RWMutex. Heavyweight analytical state (the full summaries
// topk and spreadby need) hangs off an atomic snapshot pointer.
//
// Reloads are seqlock-shaped. All decode/collapse work happens before any
// lock is taken; the swap phase then makes the generation counter odd,
// replaces each shard's slice pointer under its own write lock, installs
// the new snapshot pointer, and makes the generation even again. Readers
// never wait on the expensive part of a reload: a per-node read blocks
// only behind a pointer assignment, and multi-node reads re-run when the
// generation moved underneath them, so they never return a table mixing
// two snapshots.
type store struct {
	nshards int
	shards  []shard
	// gen is even outside reloads and odd during the swap phase; it is
	// bumped twice per reload, so gen/2 counts installed snapshots.
	gen  atomic.Uint64
	snap atomic.Pointer[snapshot]
	// reloadMu serializes whole reloads (not reads).
	reloadMu sync.Mutex
}

type shard struct {
	mu        sync.RWMutex
	collapsed []*hll.Sketch                 // approx kind; nil entries = empty IRS
	phi       []map[graph.NodeID]graph.Time // exact kind
}

// snapshot is the immutable view of one loaded summary set. greedy is
// the generation's one greedy seed sequence, which every /topk answers
// from; it does its work on the first /topk.
type snapshot struct {
	gen      uint64 // even generation value current when this snapshot was installed
	exact    *core.ExactSummaries
	approx   *core.ApproxSummaries
	greedy   *core.GreedySeq
	numNodes int
}

func newStore(nshards int) *store {
	return &store{nshards: nshards, shards: make([]shard, nshards)}
}

// generation returns the number of snapshots installed so far.
func (st *store) generation() uint64 { return st.gen.Load() / 2 }

// current returns the installed snapshot, nil before the first load.
func (st *store) current() *snapshot { return st.snap.Load() }

// loadApprox collapses the summaries into the sharded table and swaps it
// in. The collapse runs off the read path, parallel per the library-wide
// worker setting.
func (st *store) loadApprox(s *core.ApproxSummaries) {
	n := s.NumNodes()
	tables := make([][]*hll.Sketch, st.nshards)
	for sh := range tables {
		tables[sh] = make([]*hll.Sketch, shardLen(n, st.nshards, sh))
	}
	oracle := core.NewApproxOracle(s) // parallel per-node collapse
	for u := 0; u < n; u++ {
		tables[u%st.nshards][u/st.nshards] = oracle.Collapsed(graph.NodeID(u))
	}
	st.swap(tables, nil, &snapshot{approx: s, greedy: oracle.Greedy(), numNodes: n})
}

// loadExact shards the exact summary maps and swaps them in.
func (st *store) loadExact(s *core.ExactSummaries) {
	n := s.NumNodes()
	tables := make([][]map[graph.NodeID]graph.Time, st.nshards)
	for sh := range tables {
		tables[sh] = make([]map[graph.NodeID]graph.Time, shardLen(n, st.nshards, sh))
	}
	for u := 0; u < n; u++ {
		tables[u%st.nshards][u/st.nshards] = s.Phi[u]
	}
	st.swap(nil, tables, &snapshot{exact: s, greedy: core.NewExactGreedy(s), numNodes: n})
}

// loadFile reads an IRX1 snapshot of either kind and installs it.
func (st *store) loadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	exact, approx, err := core.ReadSummaries(f)
	if err != nil {
		return fmt.Errorf("snapshot %s: %v", path, err)
	}
	if exact != nil {
		st.loadExact(exact)
	} else {
		st.loadApprox(approx)
	}
	return nil
}

// swap is the only writer of shard state: generation odd → per-shard
// pointer replacement under the shard locks → snapshot install →
// generation even. The snapshot pointer is stored before the final bump
// so a reader that observes the new (even) generation always sees a
// snapshot at least as new as the shard tables it read.
func (st *store) swap(collapsed [][]*hll.Sketch, phi [][]map[graph.NodeID]graph.Time, snap *snapshot) {
	st.reloadMu.Lock()
	defer st.reloadMu.Unlock()
	odd := st.gen.Add(1) // odd: swap in progress
	for sh := range st.shards {
		s := &st.shards[sh]
		s.mu.Lock()
		if collapsed != nil {
			s.collapsed, s.phi = collapsed[sh], nil
		} else {
			s.collapsed, s.phi = nil, phi[sh]
		}
		s.mu.Unlock()
	}
	snap.gen = odd + 1
	st.snap.Store(snap)
	st.gen.Add(1) // even: swap complete
}

// shardLen returns the slot count of shard sh for n nodes striped u%k.
func shardLen(n, k, sh int) int {
	return (n - sh + k - 1) / k
}

// read runs fn against a consistent table generation: it retries whenever
// a reload's swap phase overlapped the reads fn performed. fn must touch
// shard state only through readNode-style per-shard locking.
func (st *store) read(fn func()) {
	for {
		g := st.gen.Load()
		if g&1 == 0 {
			fn()
			if st.gen.Load() == g {
				return
			}
		}
		// A swap is in (or passed through) progress; its critical section
		// is pointer assignments only, so yielding briefly is enough.
		runtime.Gosched()
	}
}

// sketchAt returns the collapsed sketch in the slot, nil when the shard
// currently holds no approx table or the slot is beyond it (a smaller
// snapshot was, or is being, swapped in). Callers hold the shard RLock;
// the store.read generation check turns any mid-swap nil into a retry.
func (sh *shard) sketchAt(slot int) *hll.Sketch {
	if slot >= len(sh.collapsed) {
		return nil
	}
	return sh.collapsed[slot]
}

// phiAt is sketchAt for exact tables; len(nil) = 0 reads as an empty IRS.
func (sh *shard) phiAt(slot int) map[graph.NodeID]graph.Time {
	if slot >= len(sh.phi) {
		return nil
	}
	return sh.phi[slot]
}

// influence returns |σω(u)| (exact) or its estimate from u's shard.
func (st *store) influence(u graph.NodeID) float64 {
	var out float64
	st.read(func() {
		snap := st.snap.Load()
		sh := &st.shards[int(u)%st.nshards]
		slot := int(u) / st.nshards
		sh.mu.RLock()
		if snap.approx != nil {
			if sk := sh.sketchAt(slot); sk != nil {
				out = sk.Estimate()
			} else {
				out = 0
			}
		} else {
			out = float64(len(sh.phiAt(slot)))
		}
		sh.mu.RUnlock()
	})
	return out
}

// spread returns |⋃ σω(u)| over the seeds, unioning shard entries in seed
// order — HLL union is a cell-wise maximum and exact union is a set
// union, so neither the shard count nor the shard layout can change the
// answer.
func (st *store) spread(seeds []graph.NodeID) float64 {
	var out float64
	st.read(func() {
		snap := st.snap.Load()
		if snap.approx != nil {
			union := hll.MustNew(snap.approx.Precision)
			for _, u := range seeds {
				sh := &st.shards[int(u)%st.nshards]
				sh.mu.RLock()
				sk := sh.sketchAt(int(u) / st.nshards)
				sh.mu.RUnlock()
				if sk != nil {
					// Same-precision merge cannot fail.
					_ = union.Merge(sk)
				}
			}
			out = union.Estimate()
			return
		}
		set := make(map[graph.NodeID]struct{})
		for _, u := range seeds {
			sh := &st.shards[int(u)%st.nshards]
			sh.mu.RLock()
			phi := sh.phiAt(int(u) / st.nshards)
			sh.mu.RUnlock()
			for v := range phi {
				set[v] = struct{}{}
			}
		}
		out = float64(len(set))
	})
	return out
}

// spreadBy answers the deadline-bounded spread on the full summaries.
func (s *snapshot) spreadBy(seeds []graph.NodeID, deadline graph.Time) float64 {
	if s.approx != nil {
		return s.approx.SpreadByEstimate(seeds, deadline)
	}
	return float64(s.exact.SpreadBy(seeds, deadline))
}

// omega returns the channel-duration bound the snapshot was built with.
func (s *snapshot) omega() int64 {
	if s.approx != nil {
		return s.approx.Omega
	}
	return s.exact.Omega
}

// spreadWindow answers the window-restricted spread |⋃ σ(u)| counting
// only nodes first influenced inside [at, at+horizon−1], on the full
// approx summaries. The second return is false on exact snapshots:
// their summary maps record only the earliest influence time per pair,
// not the versioned staircases a window query needs, so the handler
// turns that into 409 rather than serving a silently wrong number.
func (s *snapshot) spreadWindow(seeds []graph.NodeID, at, horizon int64) (float64, bool) {
	if s.approx == nil {
		return 0, false
	}
	return s.approx.SpreadEstimateWindow(seeds, at, horizon), true
}

// statsBody is the /stats response: snapshot-level facts only, so the
// body is independent of shard count and cache configuration.
func (s *snapshot) statsBody() map[string]any {
	if s.approx != nil {
		return map[string]any{
			"kind":          "approx",
			"nodes":         s.numNodes,
			"omega":         s.approx.Omega,
			"precision":     s.approx.Precision,
			"entries":       s.approx.EntryCount(),
			"summary_bytes": s.approx.MemoryBytes(),
		}
	}
	return map[string]any{
		"kind":          "exact",
		"nodes":         s.numNodes,
		"omega":         s.exact.Omega,
		"entries":       s.exact.EntryCount(),
		"summary_bytes": s.exact.MemoryBytes(),
	}
}

// LoadApprox installs sketched summaries as the served snapshot. Safe
// under live traffic: queries in flight finish on a consistent table.
func (s *Server) LoadApprox(sum *core.ApproxSummaries) {
	start := time.Now()
	s.store.loadApprox(sum)
	s.afterLoad("load_approx", start)
}

// LoadExact installs exact summaries as the served snapshot.
func (s *Server) LoadExact(sum *core.ExactSummaries) {
	start := time.Now()
	s.store.loadExact(sum)
	s.afterLoad("load_exact", start)
}

// Reload re-reads Config.SnapshotPath and swaps the result in atomically.
// It errors when no snapshot path is configured or the file is
// unreadable; the previous snapshot keeps serving in every error case.
func (s *Server) Reload() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	start := time.Now()
	if err := s.store.loadFile(s.cfg.SnapshotPath); err != nil {
		return err
	}
	s.afterLoad("reload", start)
	return nil
}

// afterLoad runs the bookkeeping common to all snapshot installs: old
// cache entries can never be served again (keys embed the generation),
// so drop them eagerly, count the reload, wake WaitGeneration callers,
// and — the generation swap being the moment the new data became
// queryable — stamp waiting trace records serve-visible.
func (s *Server) afterLoad(cause string, start time.Time) {
	s.cache.purge()
	s.mx.reloads.Inc()
	s.mx.generation.Set(int64(s.Generation()))
	s.genMu.Lock()
	close(s.genCh)
	s.genCh = make(chan struct{})
	s.genMu.Unlock()
	s.cfg.Tracer.StampVisible()
	s.cfg.Journal.Record(trace.EventSnapshotReload, cause, time.Since(start), map[string]any{
		"generation": s.Generation(),
	})
}
