package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// An untraced run measures in parts, each part a fresh child process
// (perfbench --child) that sets up, runs whole rounds, checks the store
// and hands its raw figures back; the run's metrics are medians over all
// parts. Two processes running identical rounds on one host differ by
// more than two rounds of one process do: the same embedded-ingest round
// ran at 45.9k to 56.6k ops/s in eight fresh processes (with two Ps). A
// median over several processes per run keeps one process's luck out of
// the run's figure.

const (
	wireParts = 4 // a wire run is this many parts of run_seconds/wireParts each
	// partRound is the --seconds given to an embedded-ingest part: it
	// runs exactly one round.
	partRound = 1e-3
)

// partOut is what a part prints for its parent: the JSON form of the
// result fields a parent aggregates.
type partOut struct {
	Problems  []string             `json:"problems"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Setup     float64              `json:"setup_s"`
	RSS       float64              `json:"rss_mib"`
	Sim       float64              `json:"sim_write_ops_s"`
	SimRound  string               `json:"sim_round,omitempty"`
	ChunkNS   []int64              `json:"chunk_ns,omitempty"`
	Rates     []float64            `json:"rates,omitempty"`
	RefNS     []int64              `json:"ref_ns"`
	Pcts      map[string][]float64 `json:"pcts"`
	Samples   map[string]int       `json:"samples"`
}

func (r *result) part() partOut {
	return partOut{
		Problems: r.problems, Attempted: r.attempted, Failed: r.failed,
		Setup: r.setup, RSS: r.e2e["rss_mib"], Sim: r.e2e["sim_write_ops_s"], SimRound: r.simRound,
		ChunkNS: r.chunkNS, Rates: r.rates, RefNS: r.refNS, Pcts: r.pcts, Samples: r.samples,
	}
}

// runPart runs one part in a child process.
func runPart(o options, seconds float64) (*partOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--child")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("part: %w", err)
	}
	var p partOut
	if err := json.Unmarshal(bytes.TrimSpace(out), &p); err != nil {
		return nil, fmt.Errorf("part: %w", err)
	}
	return &p, nil
}

// runParts is an untraced run. embedded-ingest runs one-round parts until
// the run has lasted --seconds, timing embeddedProbes set-ups in fresh
// processes before each; wire-pipelined runs wireParts parts of
// --seconds/wireParts each.
func runParts(o options) (*result, error) {
	res := newResult()
	embedded := o.workload == "embedded-ingest"
	var (
		parts  []*partOut
		setups []float64
	)
	t0 := time.Now()
	for i := 0; ; i++ {
		if embedded && i > 0 && time.Since(t0).Seconds() >= o.seconds || !embedded && i == wireParts {
			break
		}
		secs := o.seconds / wireParts
		if embedded {
			ds, err := probeSetups(embeddedProbes)
			if err != nil {
				return nil, err
			}
			setups = append(setups, ds...)
			secs = partRound
		}
		p, err := runPart(o, secs)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
		setups = append(setups, p.Setup)
		res.attempted += p.Attempted
		res.failed += p.Failed
		for _, e := range p.Problems {
			res.problem(fmt.Errorf("part %d: %s", i, e))
		}
	}

	// Wall figures are scaled to the reference host, part by part.
	var rss, sims, rates, rawRates, refs []float64
	var chunks, rawChunks [][]time.Duration
	pcts := map[string][]float64{}
	for i, p := range parts {
		var rs []float64
		for _, r := range p.RefNS {
			rs = append(rs, float64(r))
		}
		if len(rs) == 0 {
			return nil, fmt.Errorf("part %d timed no reference kernel", i)
		}
		refs = append(refs, median(rs)/1e6)
		f := float64(refNominal) / median(rs) // duration scale
		rss = append(rss, p.RSS)
		sims = append(sims, p.Sim)
		for _, r := range p.Rates {
			rates = append(rates, r/f)
			rawRates = append(rawRates, r)
		}
		var ch, raw []time.Duration
		for _, d := range p.ChunkNS {
			ch = append(ch, time.Duration(float64(d)*f))
			raw = append(raw, time.Duration(d))
		}
		chunks = append(chunks, ch)
		rawChunks = append(rawChunks, raw)
		for k, v := range p.Pcts {
			for _, x := range v {
				pcts[k] = append(pcts[k], x*f)
			}
		}
		for k, n := range p.Samples {
			res.samples[k] += n
		}
		// embedded-ingest's simulated numbers depend only on the seed:
		// every part's round must match part 0's exactly.
		if embedded && p.SimRound != parts[0].SimRound {
			res.problem(fmt.Errorf("part %d: simulated time, PM counters or phases differ from part 0 on the same seed", i))
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["rss_mib"] = median(rss)
	res.e2e["sim_write_ops_s"] = median(sims)
	raw := median(rawRates)
	if embedded {
		res.e2e["ops_s"] = positionalRate(chunks, embeddedOps)
		raw = positionalRate(rawChunks, embeddedOps)
	} else {
		res.e2e["ops_s"] = median(rates)
	}
	fmt.Fprintf(o.log, "# reference kernel median per part: %.4f ms (refNominal %.4f ms); ops_s unscaled %.1f\n", refs, float64(refNominal)/1e6, raw)
	for _, name := range []string{"write", "get", "scan"} {
		k := name + "_p50_us"
		res.e2e[k] = median(pcts[k])
		if v, ok := pcts[name+"_p99_us"]; ok && len(v) == len(pcts[k]) {
			res.tails = append(res.tails, fmt.Sprintf("%s_p99_us %.4f us (%d samples, median of %d-sample chunks)", name, median(v), res.samples[k], chunk))
		} else {
			res.tails = append(res.tails, fmt.Sprintf("%s_p99_us: %v", name, errShortTail))
		}
	}
	fmt.Fprintf(o.log, "# %d parts, %d rounds, %d set-ups; scaled ops/s per round: %.0f\n", len(parts), len(rates), len(setups), rates)
	return res, nil
}
