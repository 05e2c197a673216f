package main

import (
	"fmt"
	"maps"
	"strings"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/pager"
	"fasp/internal/pmem"
)

// storeSnap is a point-in-time copy of the counters the store already
// exports; the benchmark reads only differences of two snapshots.
type storeSnap struct {
	simMax, simSum int64
	pm             pmem.Stats
	phases         map[string]int64
	m              fasp.Metrics
	txns           int64 // committed transactions, summed over shards
	sharded        bool
	livePages      int64 // allocated pages not on the free list
	pageSize       int64
}

// snapStore reads a quiescent store's counters.
func snapStore(kv *fasp.KV) (storeSnap, error) {
	es := kv.EngineStats()
	s := storeSnap{simMax: es.SimMaxNS, simSum: es.SimSumNS, pm: kv.PMStats(), phases: maps.Clone(kv.Phases()), m: kv.Metrics(), sharded: kv.Sharded()}
	// A single store commits each write in its own transaction, observed
	// once per write; a sharded store counts its group commits.
	s.txns = s.m.FlushPer.Count
	if s.sharded {
		s.txns = es.Batches
	}
	for i := 0; i < kv.Shards(); i++ {
		st, err := kv.ShardStore(i)
		if err != nil {
			return s, err
		}
		mt, ok := st.(interface{ Meta() pager.Meta })
		if !ok {
			return s, fmt.Errorf("shard %d: store %s exports no Meta", i, st.Name())
		}
		meta := mt.Meta()
		s.livePages += int64(meta.NPages) - int64(meta.FreeCount)
		s.pageSize = int64(meta.PageSize)
	}
	return s, nil
}

// work counts what the benchmark itself did in a measured phase.
type work struct {
	ops, writes, gets int64
	userBytes         int64 // key + value bytes of the writes
}

func (w *work) add(o work) {
	w.ops += o.ops
	w.writes += o.writes
	w.gets += o.gets
	w.userBytes += o.userBytes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histMean is the mean of the observations between two histogram
// snapshots.
func histMean(a, b obsv.HistSnapshot) float64 {
	return ratio(float64(b.Sum-a.Sum), float64(b.Count-a.Count))
}

// storeLayers derives the shard, btree, fast, pmem and phase metrics of a
// measured phase from two snapshots and the work done between them.
func storeLayers(out map[string]float64, a, b storeSnap, w work, liveKeys int) {
	txns := float64(b.txns - a.txns)
	writes := float64(w.writes)
	pm := b.pm.Delta(a.pm)
	ev := b.m.Events.Sub(a.m.Events)

	out["shard.commit_width"] = ratio(writes, txns)
	out["shard.mail_depth"] = histMean(a.m.MailDepth, b.m.MailDepth)
	out["shard.get_retries_per_get"] = ratio(float64(b.m.GetRetries-a.m.GetRetries), float64(w.gets))
	out["shard.get_wall_us"] = float64(b.m.OpStats(obsv.OpGet).WallP50NS) / 1e3
	out["shard.write_wall_us"] = float64(b.m.OpStats(obsv.OpPut).WallP50NS) / 1e3
	out["shard.scan_wall_us"] = float64(b.m.OpStats(obsv.OpScan).WallP50NS) / 1e3
	out["btree.space_amp"] = ratio(float64(b.livePages*b.pageSize), float64(liveKeys*(keySize+valSize)))
	out["fast.inplace_frac"] = ratio(float64(ev.SingleLeaf), txns)
	out["fast.htm_abort_rate"] = ratio(float64(ev.HTMAbort), float64(ev.HTMCommit+ev.HTMAbort))
	out["pmem.clflush_per_write"] = ratio(float64(pm.FlushCalls), writes)
	out["pmem.fence_per_write"] = ratio(float64(ev.Fence), writes)
	out["pmem.cache_hit_ratio"] = ratio(float64(pm.CacheHits), float64(pm.CacheHits+pm.LineFills))
	out["pmem.write_amp"] = ratio(float64(pm.LineWritebacks*64), float64(w.userBytes))
	out["pmem.line_fills_per_op"] = ratio(float64(pm.LineFills), float64(w.ops))
	for _, p := range phaseMetrics {
		out[p.metric] = ratio(float64(b.phases[p.phase]-a.phases[p.phase]), writes)
	}
}

// checkMethod checks the properties the paper's method must have over a
// measured phase: every committed transaction issued at least one
// clflush, no sub-phase exceeds its top-level phase, and the top-level
// phases sum to at most the simulated time advanced.
func checkMethod(a, b storeSnap) error {
	txns := b.txns - a.txns
	if flushes := b.pm.FlushCalls - a.pm.FlushCalls; flushes < txns {
		return fmt.Errorf("%d clflush for %d committed transactions", flushes, txns)
	}
	// On a single store every write the benchmark sends changes the tree,
	// so each of its transactions must flush; a sharded group commit whose
	// every op was a delete of an absent key changes nothing.
	if zero := b.m.FlushPer.Counts[0] - a.m.FlushPer.Counts[0]; !b.sharded && zero != 0 {
		return fmt.Errorf("%d committed transactions issued no clflush", zero)
	}
	d := func(p string) int64 { return b.phases[p] - a.phases[p] }
	for _, p := range phaseMetrics[3:] {
		top, _, _ := strings.Cut(p.phase, "/")
		if d(p.phase) > d(top) {
			return fmt.Errorf("phase %s (%d ns) exceeds %s (%d ns)", p.phase, d(p.phase), top, d(top))
		}
	}
	if sum, sim := d("Search")+d("PageUpdate")+d("Commit"), b.simSum-a.simSum; sum > sim {
		return fmt.Errorf("top-level phases sum to %d ns, more than the %d ns simulated", sum, sim)
	}
	return nil
}

// checkStore checks a quiescent store against the models: a full scan
// and Count equal the union of the models, and Validate passes.
func checkStore(kv *fasp.KV, ms []*model) error {
	if err := checkContents(ms, func(fn func(k, v []byte) bool) error { return kv.Scan(nil, nil, fn) }); err != nil {
		return err
	}
	n, err := kv.Count()
	if err != nil {
		return fmt.Errorf("count: %w", err)
	}
	if n != liveCount(ms) {
		return fmt.Errorf("count %d, want %d", n, liveCount(ms))
	}
	if err := kv.Validate(); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	return nil
}
