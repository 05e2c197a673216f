package main

import (
	"fmt"
	"time"
)

// acct accumulates the measured phases of a run: wall time and requests,
// kept apart for untraced and traced rounds, plus the process's CPU time
// and GC pauses while measuring.
type acct struct {
	wall  [3]time.Duration // [untraced, traced, warm-up]
	ops   [3]int64
	cpu   time.Duration
	pause time.Duration
	rates []float64 // per round, ops/s
}

// round kinds: a traced run's first round is a warm-up, kept out of the
// traced-versus-untraced comparison.
const (
	untraced = iota
	traced
	warmup
)

// kind returns a round's kind: in a traced run the rounds after the
// warm-up alternate traced, untraced.
func (o options) kind(round int) int {
	switch {
	case !o.trace:
		return untraced
	case round == 0:
		return warmup
	case round%2 == 1:
		return traced
	}
	return untraced
}

func (a *acct) add(kind int, ops int64, p0, p1 proc) {
	a.wall[kind] += p1.wall.Sub(p0.wall)
	a.ops[kind] += ops
	a.rates = append(a.rates, ratio(float64(ops), p1.wall.Sub(p0.wall).Seconds()))
	a.cpu += p1.cpu - p0.cpu
	a.pause += p1.pause - p0.pause
}

func (a *acct) rate(i int) float64 { return ratio(float64(a.ops[i]), a.wall[i].Seconds()) }

// finish sets the metrics every workload reports the same way: ops_s,
// the latencies, the process layer and the tracing overhead.
func (a *acct) finish(res *result, lats [3]lat, heap float64, o options, lt [nLayers]layerTime, snapRows [][2]string) {
	wall := (a.wall[0] + a.wall[1] + a.wall[2]).Seconds()
	ops := float64(a.ops[0] + a.ops[1] + a.ops[2])
	res.rates = a.rates
	fmt.Fprintf(o.log, "# rounds: %d, ops/s per round: %.0f\n", len(a.rates), a.rates)
	setLatencies(res, lats)
	l := res.layer
	l["pmem.heap_mib"] = heap
	l["process.cpu_util"] = ratio(a.cpu.Seconds(), wall)
	l["process.cpu_us_per_op"] = ratio(float64(a.cpu)/1e3, ops)
	l["process.gc_pause_ms"] = ratio(float64(a.pause)/1e6, wall)
	l["client.flush_us"] = flushMeanUS(lt)
	if o.trace {
		u, t := a.rate(0), a.rate(1)
		l["trace.overhead_pct"] = ratio(u-t, u) * 100
		printLayerTable(o.log, lt, a.ops[1], snapRows, u, t)
	}
}

// another reports whether another round should start: always the first,
// three in a traced run (warm-up, traced, untraced), then until the run
// has measured long enough. Rounds are whole, so a run ends between them.
func (o options) another(round int, t0 time.Time) bool {
	return round == 0 || (o.trace && round < 3) || time.Since(t0).Seconds() < o.seconds
}

func fmtRow(name string, format string, args ...any) [2]string {
	return [2]string{name, fmt.Sprintf(format, args...)}
}

// setLatencies sets the p50 latency metrics from the write, get and scan
// samples, with their sample counts. The p99s are printed with them but
// are not end-to-end metrics: on a shared 2-CPU host they move between
// runs of identical code by more than the largest bound (see README).
func setLatencies(res *result, lats [3]lat) {
	for i, name := range []string{"write", "get", "scan"} {
		n := len(lats[i].ns)
		p50, err := lats[i].chunkPcts(0.50)
		if err != nil {
			res.problem(fmt.Errorf("%s latency: %w", name, err))
		}
		res.pcts[name+"_p50_us"] = p50
		res.e2e[name+"_p50_us"] = median(p50)
		res.samples[name+"_p50_us"] = n
		if p99, err := lats[i].chunkPcts(0.99); err != nil {
			res.tails = append(res.tails, fmt.Sprintf("%s_p99_us: %v", name, err))
		} else {
			res.pcts[name+"_p99_us"] = p99
			res.tails = append(res.tails, fmt.Sprintf("%s_p99_us %.4f us (%d samples, median of %d-sample chunks)", name, median(p99), n, chunk))
		}
	}
}
