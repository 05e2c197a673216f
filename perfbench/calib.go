package main

import (
	"slices"
	"time"
)

// The host's speed moves under the benchmark: on the shared 2-vCPU host
// the bounds were set on, every figure of two consecutive embedded-ingest
// runs was 30% better than those of the runs around them, ops_s and the
// three p50s alike, with the process's CPU time moving with its wall
// time: the host ran the same instructions faster. Each untraced part
// therefore also times a fixed reference kernel between its chunks or
// rounds, and the run's wall-clock figures are expressed in time of a
// reference host: a part whose kernel ran in median time r has its
// durations scaled by refNominal / r, and its rates by the inverse. Over
// parts of a few seconds the kernel's median and the workload's rate
// moved together: log-log correlation -0.77 over 16 embedded-ingest parts
// and -0.94 over 12 wire-pipelined parts, slopes -0.84 and -1.21.

// refNominal is the reference kernel's median time on the host the
// bounds were set on (2 vCPUs of a shared Intel Xeon VM; Go 1.24).
const refNominal = 3300 * time.Microsecond

const (
	refSorted = 1 << 20 // sorted keys searched like a B-tree: 8 MiB, past L2
	refMap    = 1 << 16 // map entries probed and updated
	refArea   = 1 << 24 // bytes that records are copied within
	refRecord = 128
	refSteps  = 4_000
)

// refKernel is a fixed mix of the work a store does (searches in sorted
// keys, hash-map probes and record copies), built from the standard
// library alone so that no change to the program under test moves it.
type refKernel struct {
	sorted []uint64
	m      map[uint64]uint64
	area   []byte
	x      uint64
	sink   uint64
}

// newRefKernel builds the kernel and returns it with the resident memory
// it added, which rss_mib leaves out.
func newRefKernel() (*refKernel, float64, error) {
	before, err := rssMiB()
	if err != nil {
		return nil, 0, err
	}
	k := &refKernel{sorted: make([]uint64, refSorted), m: make(map[uint64]uint64, refMap), area: make([]byte, refArea), x: 1}
	for i := range k.sorted {
		k.sorted[i] = uint64(i) * 0x9E3779B97F4A7C15 >> 1
	}
	slices.Sort(k.sorted)
	for i := uint64(0); i < refMap; i++ {
		k.m[i*0xBF58476D1CE4E5B9] = i
	}
	for i := range k.area {
		k.area[i] = byte(i)
	}
	after, err := rssMiB()
	return k, after - before, err
}

// sample runs the kernel once and appends its wall time in ns to dst. A
// nil kernel (a traced run has none) appends nothing.
func (k *refKernel) sample(dst []int64) []int64 {
	if k == nil {
		return dst
	}
	t := time.Now()
	x, s := k.x, k.sink
	for i := 0; i < refSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j, _ := slices.BinarySearch(k.sorted, x>>1)
		s += uint64(j)
		key := (x >> 48) * 0xBF58476D1CE4E5B9
		if v, ok := k.m[key]; ok {
			k.m[key] = v + 1
		}
		from, to := int(x>>8)%(refArea-refRecord), int(x>>32)%(refArea-refRecord)
		copy(k.area[to:to+refRecord], k.area[from:from+refRecord])
		s += uint64(k.area[to])
	}
	k.x, k.sink = x, s
	return append(dst, int64(time.Since(t)))
}
