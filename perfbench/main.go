// Command perfbench is the repository's benchmark: two closed-loop
// workloads driven from one process through the public API (fasp.OpenKV,
// internal/server, internal/server/client), every answer checked against
// a model kept by the benchmark. See README.md.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	log      io.Writer // progress and tables, printed before the result
}

var workloads = map[string]func(options) (*result, error){
	"embedded-ingest": runEmbedded,
	"wire-pipelined":  runWirePipelined,
}

// The benchmark gives the Go runtime one P, in every process it runs. On
// the shared 2-vCPU host the bounds were set on, with two Ps a figure
// depended on whether the host gave the second vCPU time: embedded-ingest,
// one goroutine, ran at 40.0k-45.3k ops/s in three runs with its CPU time
// 3-11% short of its wall time, where one P gave 46.0k-46.5k; three
// wire-pipelined runs gave 14.0k-19.5k ops/s with two Ps and 15.2k-15.9k
// with one. With one P the collector, the server and the clients share
// one CPU, so every cost stays in the figures, and what a second CPU
// would add in parallel is not measured.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measure whole rounds until this many seconds have passed")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	probe := fs.Bool("setup-probe", false, "internal: open an empty single store, print the seconds it took")
	child := fs.Bool("child", false, "internal: run one part of an untraced run, print its raw figures as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		if err := setupProbe(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[o.workload]
	if !ok || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = *trace == 1
	o.log = stdout
	if *child {
		o.trace, o.log = false, io.Discard
	} else if !o.trace {
		wl = runParts
	}
	res, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if *child {
		err = json.NewEncoder(stdout).Encode(res.part())
	} else {
		err = res.print(stdout, o.trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// result is one run's outcome.
type result struct {
	problems  []string
	attempted int64
	failed    int64
	e2e       map[string]float64
	samples   map[string]int // sample count behind each percentile metric
	layer     map[string]float64
	tails     []string // report-only lines

	// What a part of an untraced run hands its parent (see parts.go).
	setup    float64              // this process's own set-up, s
	simRound string               // embedded-ingest: the first round's simulated time, PM counters and phases
	chunkNS  []int64              // embedded-ingest: wall ns of each embeddedChunk requests
	refNS    []int64              // wall ns of each reference kernel run (see calib.go)
	rates    []float64            // wire: ops/s of each round
	pcts     map[string][]float64 // latency percentiles of each sample chunk, µs
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, samples: map[string]int{}, layer: map[string]float64{}, pcts: map[string][]float64{}}
}

// problem records a wrong answer; the run goes on, and prints
// correct=false.
func (r *result) problem(err error) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// fail counts an operation the program refused or could not answer. The
// model assumed it would succeed, so it is also recorded as a problem.
func (r *result) fail(op string, err error) {
	r.failed++
	r.problem(fmt.Errorf("%s failed: %w", op, err))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable report, then the JSON line.
func (r *result) print(w io.Writer, traced bool) error {
	out := resultOut{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# WRONG: %s\n", p)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d\n", r.attempted, r.failed)
	cat, vals := endToEnd, r.e2e
	if traced {
		cat, vals = perLayer, r.layer
	}
	for _, m := range cat {
		v, ok := vals[m.name]
		if !ok && !traced {
			return fmt.Errorf("metric %s not measured", m.name)
		}
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		line := fmt.Sprintf("# %-26s %16.4f %s", m.name, v, m.unit)
		if n, ok := r.samples[m.name]; ok {
			line += fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, t := range r.tails {
		fmt.Fprintf(w, "# %s, reported, not a metric\n", t)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
