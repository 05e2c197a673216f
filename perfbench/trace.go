package main

import (
	"fmt"
	"io"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer,
// kept in memory, and summarised at the end of a traced run. Each
// goroutine owns one tracer; spans nest by call, so a span's self time is
// its duration minus the durations of the spans it directly encloses.

type layer uint8

const (
	lOp          layer = iota // one request: generation, call and check
	lStore                    // a call into fasp.KV
	lClientQueue              // encoding a request into the client's buffer
	lClientFlush              // Client.Flush: the socket write
	lClientRecv               // Client.Recv: waiting for and decoding a reply
	lClientScan               // Client.Scan: a synchronous paged scan
	nLayers
)

var layerNames = [nLayers]string{"bench.op", "store.call", "client.queue", "client.flush", "client.recv", "client.scan"}

type span struct {
	l          layer
	parent     int32
	start, end int64 // ns since the tracer's base
}

type tracer struct {
	on    bool
	base  time.Time
	spans []span
	stack []int32
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) begin(l layer) {
	if !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{l: l, parent: parent, start: int64(time.Since(t.base))})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = int64(time.Since(t.base))
	t.stack = t.stack[:n]
}

// layerTime is one layer's span summary.
type layerTime struct {
	count       int
	total, self time.Duration
}

// summarise folds the spans of several tracers into per-layer totals.
func summarise(ts ...*tracer) [nLayers]layerTime {
	var out [nLayers]layerTime
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			lt := &out[s.l]
			lt.count++
			lt.total += time.Duration(d)
			lt.self += time.Duration(d - child[i])
		}
	}
	return out
}

// flushMeanUS is the mean Client.Flush span in µs (0 without spans).
func flushMeanUS(lt [nLayers]layerTime) float64 {
	f := lt[lClientFlush]
	if f.count == 0 {
		return 0
	}
	return float64(f.total) / float64(f.count) / 1e3
}

// printLayerTable writes the traced run's per-layer table: span counts
// with total and self time, the layers measured from the program's own
// snapshots, and the tracing overhead.
func printLayerTable(w io.Writer, lt [nLayers]layerTime, ops int64, snapRows [][2]string, untraced, traced float64) {
	fmt.Fprintf(w, "# per-layer table (spans from traced rounds; counts from snapshot deltas)\n")
	fmt.Fprintf(w, "# %-14s %10s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for l := layer(0); l < nLayers; l++ {
		t := lt[l]
		if t.count == 0 {
			continue
		}
		perOp := 0.0
		if ops > 0 {
			perOp = float64(t.self) / float64(ops) / 1e3
		}
		fmt.Fprintf(w, "# %-14s %10d %12.3f %12.3f %12.3f\n", layerNames[l], t.count,
			float64(t.total)/1e6, float64(t.self)/1e6, perOp)
	}
	for _, r := range snapRows {
		fmt.Fprintf(w, "# %-28s %s\n", r[0], r[1])
	}
	fmt.Fprintf(w, "# tracing overhead: untraced %.1f ops/s, traced %.1f ops/s\n", untraced, traced)
}
