package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"time"

	"fasp"
	"fasp/internal/pmem"
)

// embedded-ingest: one goroutine drives an in-process single store
// (OpenKV with default Options: fast+, 300/300 ns PM, 2 MiB emulated
// cache). Each round starts from an empty store and runs the same
// seed-determined stream of embeddedOps requests, which grows the store to
// about 200k keys; every insert, overwrite and delete is its own
// failure-atomic transaction. After the stream (outside timing) the
// contents are checked, the store is crashed and reopened, and checked
// again.

const (
	embeddedOps    = 310_000
	embeddedSlotLg = 18 // fresh keys are drawn from 2^18 slots
	embeddedProbes = 10 // set-ups timed in child processes before each round
	embeddedChunk  = 10_000
	scanLimit      = 32
)

// Request mix of embedded-ingest, in percent.
const (
	embInsert    = 70
	embOverwrite = 10
	embDelete    = 5
	embGet       = 10
	// the remaining 5% are 32-key scans
)

// roundSim is what a round's simulated clock and PM counters did; two
// rounds of one seed must agree exactly.
type roundSim struct {
	sim    int64
	pm     pmem.Stats
	phases map[string]int64
	txns   int64
}

func runEmbedded(o options) (*result, error) {
	res := newResult()
	var (
		total    work
		lats     [3]lat // write, get, scan
		ac       acct
		firstSim *roundSim
		heap     float64
		tr       = newTracer(time.Now())
		ref      *refKernel
		refMiB   float64
	)
	t0 := time.Now()
	for round := 0; o.another(round, t0); round++ {
		t := time.Now()
		kv, err := fasp.OpenKV(fasp.Options{})
		if err != nil {
			return nil, err
		}
		if round == 0 {
			// Only this process's first set-up counts: later ones reuse
			// freed heap, which the runtime zeroes.
			res.setup = time.Since(t).Seconds()
			heap = heapMiB()
			if !o.trace {
				if ref, refMiB, err = newRefKernel(); err != nil {
					return nil, err
				}
			}
		}
		a, err := snapStore(kv)
		if err != nil {
			return nil, err
		}
		m := newModel('e', 1<<embeddedSlotLg)
		kind := o.kind(round)
		tr.on = kind == traced
		p0 := procNow()
		w := embeddedRound(kv, m, o.seed, res, &lats, tr, ref)
		ac.add(kind, w.ops, p0, procNow())
		if round == 0 {
			rss, err := rssMiB()
			if err != nil {
				return nil, err
			}
			res.e2e["rss_mib"] = rss - refMiB
		}
		tr.on = false
		total.add(w)
		b, err := snapStore(kv)
		if err != nil {
			return nil, err
		}
		if err := checkMethod(a, b); err != nil {
			res.problem(fmt.Errorf("round %d: %w", round, err))
		}
		rs := &roundSim{sim: b.simSum - a.simSum, pm: b.pm.Delta(a.pm), txns: b.txns - a.txns, phases: map[string]int64{}}
		for k, v := range b.phases {
			rs.phases[k] = v - a.phases[k]
		}
		if firstSim == nil {
			firstSim = rs
			res.e2e["sim_write_ops_s"] = ratio(float64(w.writes), float64(rs.sim)/1e9)
			res.simRound = fmt.Sprintf("%+v", *rs) // maps print in key order
		} else if !reflect.DeepEqual(firstSim, rs) {
			res.problem(fmt.Errorf("round %d: simulated numbers differ from round 0 on the same seed", round))
		}
		// Every round of a seed is the same stream, so the last round's
		// store-layer figures stand for all of them.
		storeLayers(res.layer, a, b, w, m.count())
		if err := checkStore(kv, []*model{m}); err != nil {
			res.problem(fmt.Errorf("after the stream: %w", err))
		}
		kv.Crash(fasp.CrashOptions{Seed: o.seed, EvictProb: 0.5})
		if err := kv.ReopenKV(); err != nil {
			res.problem(fmt.Errorf("reopen after crash: %w", err))
		} else if err := checkStore(kv, []*model{m}); err != nil {
			res.problem(fmt.Errorf("after crash and reopen: %w", err))
		}
		kv.Close()
		release()
	}
	res.attempted = total.ops
	lt := summarise(tr)
	rows := [][2]string{
		fmtRow("store.sim_ns_per_op", "%.1f (simulated, all layers below the facade)", ratio(float64(firstSim.sim), embeddedOps)),
	}
	ac.finish(res, lats, heap, o, lt, rows)
	return res, nil
}

// positionalRate is the throughput of a round built from medians: every
// round runs the same stream, so the k-th chunk of each round did the
// same work, and the median of those durations stands for it. A burst of
// host noise in one round then does not move the figure.
func positionalRate(chunks [][]time.Duration, opsPerRound int) float64 {
	var total time.Duration
	for k := range chunks[0] {
		var ds []float64
		for _, r := range chunks {
			ds = append(ds, float64(r[k]))
		}
		total += time.Duration(median(ds))
	}
	return ratio(float64(opsPerRound), total.Seconds())
}

// embeddedRound runs one round's request stream, checking every answer,
// and returns the work done. It records the wall time of each
// embeddedChunk requests in res.chunkNS, with a reference kernel run
// after each.
func embeddedRound(kv *fasp.KV, m *model, seed int64, res *result, lats *[3]lat, tr *tracer, ref *refKernel) work {
	rng := rand.New(rand.NewSource(seed))
	var (
		w     work
		fresh uint32
		key   []byte
		val   []byte
		keys  [][]byte
		vals  [][]byte
	)
	t0 := time.Now()
	for i := 0; i < embeddedOps; i++ {
		if i > 0 && i%embeddedChunk == 0 {
			res.chunkNS = append(res.chunkNS, int64(time.Since(t0)))
			res.refNS = ref.sample(res.refNS)
			t0 = time.Now()
		}
		tr.begin(lOp)
		r := rng.Intn(100)
		if m.count() == 0 {
			r = 0
		}
		switch {
		case r < embInsert:
			slot := permute(fresh, embeddedSlotLg, seed)
			fresh++
			ver := m.put(slot)
			key = appendKey(key[:0], m.part, slot)
			val = appendValue(val[:0], m.part, slot, ver)
			t := time.Now()
			tr.begin(lStore)
			err := kv.Insert(key, val)
			tr.end()
			lats[0].add(time.Since(t))
			w.writes++
			w.userBytes += int64(len(key) + len(val))
			if err != nil {
				res.fail(fmt.Sprintf("INSERT %s", key), err)
			}
		case r < embInsert+embOverwrite:
			slot := m.pick(rng.Intn(m.count()))
			ver := m.put(slot)
			key = appendKey(key[:0], m.part, slot)
			val = appendValue(val[:0], m.part, slot, ver)
			t := time.Now()
			tr.begin(lStore)
			err := kv.Put(key, val)
			tr.end()
			lats[0].add(time.Since(t))
			w.writes++
			w.userBytes += int64(len(key) + len(val))
			if err != nil {
				res.fail(fmt.Sprintf("PUT %s", key), err)
			}
		case r < embInsert+embOverwrite+embDelete:
			slot := m.pick(rng.Intn(m.count()))
			m.del(slot)
			key = appendKey(key[:0], m.part, slot)
			t := time.Now()
			tr.begin(lStore)
			err := kv.Delete(key)
			tr.end()
			lats[0].add(time.Since(t))
			w.writes++
			w.userBytes += int64(len(key))
			if err != nil {
				res.fail(fmt.Sprintf("DEL %s", key), err)
			}
		case r < embInsert+embOverwrite+embDelete+embGet:
			// Three in four GETs ask for a live key, the rest for a
			// random slot, which is mostly absent.
			var slot uint32
			if rng.Intn(4) > 0 {
				slot = m.pick(rng.Intn(m.count()))
			} else {
				slot = permute(uint32(rng.Intn(1<<embeddedSlotLg)), embeddedSlotLg, seed)
			}
			key = appendKey(key[:0], m.part, slot)
			t := time.Now()
			tr.begin(lStore)
			v, ok, err := kv.Get(key)
			tr.end()
			lats[1].add(time.Since(t))
			w.gets++
			if err != nil {
				res.fail(fmt.Sprintf("GET %s", key), err)
			} else if err := m.checkGet(slot, v, ok); err != nil {
				res.problem(err)
			}
		default:
			lo := permute(uint32(rng.Intn(1<<embeddedSlotLg)), embeddedSlotLg, seed)
			key = appendKey(key[:0], m.part, lo)
			keys, vals = keys[:0], vals[:0]
			t := time.Now()
			tr.begin(lStore)
			err := kv.Scan(key, nil, func(k, v []byte) bool {
				keys = append(keys, append([]byte(nil), k...))
				vals = append(vals, append([]byte(nil), v...))
				return len(keys) < scanLimit
			})
			tr.end()
			lats[2].add(time.Since(t))
			if err != nil {
				res.fail(fmt.Sprintf("SCAN %s", key), err)
			} else if err := m.checkScanPage(lo, uint32(m.slots()-1), scanLimit, keys, vals); err != nil {
				res.problem(err)
			}
		}
		w.ops++
		tr.end()
	}
	res.chunkNS = append(res.chunkNS, int64(time.Since(t0)))
	res.refNS = ref.sample(res.refNS)
	return w
}

// probeSetups times n opens of an empty store, each in a child process
// running setupProbe. An open takes about a millisecond and its time
// follows the host's state, so a run samples many, spread over the run.
func probeSetups(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ds []float64
	for i := 0; i < n; i++ {
		out, err := exec.Command(exe, "--setup-probe").Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// setupProbe is a child process's part of probeSetups: open an empty
// store, print the seconds it took, close it.
func setupProbe(w io.Writer) error {
	t := time.Now()
	kv, err := fasp.OpenKV(fasp.Options{})
	if err != nil {
		return err
	}
	d := time.Since(t).Seconds()
	kv.Close()
	_, err = fmt.Fprintln(w, d)
	return err
}
