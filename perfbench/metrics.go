package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// The metric catalogue. BENCHMARK.json names the same metrics; a run
// prints every end-to-end metric untraced and every per-layer metric
// traced.

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_mib", "MiB"},
	{"ops_s", "1/s"},
	{"sim_write_ops_s", "1/s"},
	{"write_p50_us", "us"},
	{"get_p50_us", "us"},
	{"scan_p50_us", "us"},
}

// perLayer lists the per-layer metrics. A metric whose layer is not on a
// workload's path reads 0 there (the client and server layers on
// embedded-ingest, for example).
var perLayer = []struct{ name, unit string }{
	{"client.flush_us", "us"},
	{"client.transport_us", "us"},
	{"server.get_wall_us", "us"},
	{"server.write_wall_us", "us"},
	{"server.scan_wall_us", "us"},
	{"server.submit_width", "ops"},
	{"server.shard_round_width", "ops"},
	{"server.pipe_occupancy", "count"},
	{"server.bytes_per_op", "B"},
	{"shard.commit_width", "ops"},
	{"shard.mail_depth", "count"},
	{"shard.get_retries_per_get", "count"},
	{"shard.get_wall_us", "us"},
	{"shard.write_wall_us", "us"},
	{"shard.scan_wall_us", "us"},
	{"btree.space_amp", "x"},
	{"fast.inplace_frac", "ratio"},
	{"fast.htm_abort_rate", "ratio"},
	{"pmem.clflush_per_write", "count"},
	{"pmem.fence_per_write", "count"},
	{"pmem.cache_hit_ratio", "ratio"},
	{"pmem.write_amp", "x"},
	{"pmem.line_fills_per_op", "count"},
	{"pmem.heap_mib", "MiB"},
	{"phase.search_ns", "ns"},
	{"phase.page_update_ns", "ns"},
	{"phase.commit_ns", "ns"},
	{"phase.record_write_ns", "ns"},
	{"phase.clflush_record_ns", "ns"},
	{"phase.defragment_ns", "ns"},
	{"phase.checkpointing_ns", "ns"},
	{"phase.atomic_write_ns", "ns"},
	{"phase.log_flush_ns", "ns"},
	{"process.cpu_util", "s/s"},
	{"process.cpu_us_per_op", "us"},
	{"process.gc_pause_ms", "ms/s"},
	{"trace.overhead_pct", "%"},
}

// phaseMetrics maps the program's phase names (internal/phase) to
// per-layer metric names.
var phaseMetrics = []struct{ phase, metric string }{
	{"Search", "phase.search_ns"},
	{"PageUpdate", "phase.page_update_ns"},
	{"Commit", "phase.commit_ns"},
	{"PageUpdate/record-write", "phase.record_write_ns"},
	{"PageUpdate/clflush-record", "phase.clflush_record_ns"},
	{"PageUpdate/defragment", "phase.defragment_ns"},
	{"Commit/checkpointing", "phase.checkpointing_ns"},
	{"Commit/atomic-64B-write", "phase.atomic_write_ns"},
	{"Commit/log-flush", "phase.log_flush_ns"},
}

// errShortTail is returned by quantile when fewer than minTail samples
// lie beyond the requested percentile: such a "tail" is a handful of
// samples, not a percentile.
var errShortTail = errors.New("too few samples beyond the percentile")

// minTail is the number of samples that must lie beyond a reported
// percentile.
const minTail = 10

// quantile returns the q-quantile (0 < q < 1) of sorted samples by the
// nearest-rank rule, refusing a tail with fewer than minTail samples
// beyond it.
func quantile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples: %w", q*100, n, errShortTail)
	}
	return sorted[rank-1], nil
}

// lat collects wall latencies of one request class, in completion order.
type lat struct{ ns []int64 }

func (l *lat) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }

// chunk is the number of consecutive samples one percentile estimate is
// taken over: the p99 of a chunk has ten samples beyond it.
const chunk = 1000

// pct returns the q-quantile in µs: the median, over consecutive chunks
// of samples, of the chunk's quantile, so that one stall does not move a
// run's figure. It fails when a chunk cannot support the quantile.
func (l *lat) pct(q float64) (float64, error) {
	vs, err := l.chunkPcts(q)
	if err != nil {
		return 0, err
	}
	return median(vs), nil
}

// chunkPcts returns the q-quantile in µs of each consecutive chunk of
// samples. A trailing part chunk joins the chunk before it.
func (l *lat) chunkPcts(q float64) ([]float64, error) {
	n := len(l.ns)
	var vs []float64
	for lo := 0; ; lo += chunk {
		hi := lo + chunk
		if n-hi < chunk {
			hi = n
		}
		s := slices.Clone(l.ns[lo:hi])
		slices.Sort(s)
		v, err := quantile(s, q)
		if err != nil {
			return nil, err
		}
		vs = append(vs, float64(v)/1e3)
		if hi == n {
			return vs, nil
		}
	}
}

// median of float samples (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// proc is a snapshot of this process's CPU time and GC pause total.
type proc struct {
	wall  time.Time
	cpu   time.Duration
	pause time.Duration
}

func procNow() proc {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return proc{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		pause: gc.PauseTotal,
	}
}

// rssMiB returns the process's resident set after a full collection that
// hands freed memory back to the OS: the memory the store and the
// benchmark hold. (The peak, VmHWM, depends on where the last GC cycle
// fell and moved by a fifth between runs of identical code.)
func rssMiB() (float64, error) {
	release()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmRSS:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmRSS not in /proc/self/status")
}

// heapMiB is the Go heap in use, after a collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// release returns the memory of torn-down stores to the OS, so the peak
// resident set reflects one store at a time.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}
