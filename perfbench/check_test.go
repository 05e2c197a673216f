package main

import (
	"errors"
	"strings"
	"testing"
)

// page builds the keys and values a correct SCAN would return for m over
// [lo, hi] with the given limit.
func page(m *model, lo, hi uint32, limit int) (keys, vals [][]byte) {
	for s := lo; s <= hi && len(keys) < limit; s++ {
		if m.present(s) {
			keys = append(keys, appendKey(nil, m.part, s))
			vals = append(vals, appendValue(nil, m.part, s, m.ver[s]))
		}
	}
	return keys, vals
}

func testModel() *model {
	m := newModel('a', 64)
	for s := uint32(0); s < 64; s += 2 {
		m.put(s)
	}
	m.put(10) // version 2
	return m
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("got %v, want an error containing %q", err, substr)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	for _, s := range []uint32{0, 1, 99, 1 << 20, 1<<32 - 1} {
		k := appendKey(nil, 'b', s)
		part, slot, ok := parseKey(k)
		if len(k) != keySize || !ok || part != 'b' || slot != s {
			t.Fatalf("slot %d: key %q parsed as %c %d %v", s, k, part, slot, ok)
		}
	}
}

func TestCheckGet(t *testing.T) {
	m := testModel()
	if err := m.checkGet(10, appendValue(nil, 'a', 10, 2), true); err != nil {
		t.Fatalf("current value rejected: %v", err)
	}
	if err := m.checkGet(11, nil, false); err != nil {
		t.Fatalf("absent key rejected: %v", err)
	}
	wantErr(t, m.checkGet(10, appendValue(nil, 'a', 10, 1), true), "stale")
	wantErr(t, m.checkGet(12, nil, false), "not found")
	m.del(14)
	wantErr(t, m.checkGet(14, appendValue(nil, 'a', 14, 1), true), "absent")
}

func TestCheckScanPage(t *testing.T) {
	m := testModel()
	keys, vals := page(m, 5, 40, 8)
	if err := m.checkScanPage(5, 40, 8, keys, vals); err != nil {
		t.Fatalf("correct page rejected: %v", err)
	}
	// A short page at the end of the range is complete.
	keys, vals = page(m, 50, 63, 32)
	if err := m.checkScanPage(50, 63, 32, keys, vals); err != nil {
		t.Fatalf("correct short page rejected: %v", err)
	}

	keys, vals = page(m, 5, 40, 8)
	keys[2], keys[3] = keys[3], keys[2]
	vals[2], vals[3] = vals[3], vals[2]
	wantErr(t, m.checkScanPage(5, 40, 8, keys, vals), "out of order")

	keys, vals = page(m, 5, 40, 9)
	wantErr(t, m.checkScanPage(5, 40, 8, keys, vals), "past its limit")

	keys, vals = page(m, 5, 40, 8)
	keys, vals = append(keys, appendKey(nil, 'a', 42)), append(vals, appendValue(nil, 'a', 42, 1))
	wantErr(t, m.checkScanPage(5, 40, 9, keys, vals), "past its bound")

	keys, vals = page(m, 0, 63, 4)
	wantErr(t, m.checkScanPage(5, 63, 4, keys, vals), "past its bound")

	// A page that stops early, skipping a live key, lost a write.
	keys, vals = page(m, 5, 40, 8)
	wantErr(t, m.checkScanPage(5, 40, 8, keys[:3], vals[:3]), "lost write")

	keys, vals = page(m, 5, 40, 8)
	vals[1] = appendValue(nil, 'a', 8, 7)
	wantErr(t, m.checkScanPage(5, 40, 8, keys, vals), "stale")
}

// store is a key-ordered stand-in for the program's full scan.
func scanOf(keys, vals [][]byte) func(fn func(k, v []byte) bool) error {
	return func(fn func(k, v []byte) bool) error {
		for i := range keys {
			if !fn(keys[i], vals[i]) {
				return nil
			}
		}
		return nil
	}
}

func TestCheckContents(t *testing.T) {
	a, b := testModel(), newModel('b', 16)
	b.put(3)
	ms := []*model{a, b}
	all := func() (keys, vals [][]byte) {
		ka, va := page(a, 0, 63, 1<<20)
		kb, vb := page(b, 0, 15, 1<<20)
		return append(ka, kb...), append(va, vb...)
	}
	keys, vals := all()
	if err := checkContents(ms, scanOf(keys, vals)); err != nil {
		t.Fatalf("correct contents rejected: %v", err)
	}

	// An acknowledged write lost after recovery.
	keys, vals = all()
	lost := append(keys[:4:4], keys[5:]...)
	lostV := append(vals[:4:4], vals[5:]...)
	wantErr(t, checkContents(ms, scanOf(lost, lostV)), "lost write")
	wantErr(t, checkContents(ms, scanOf(keys[:len(keys)-1], vals[:len(vals)-1])), "lost write")

	// A deleted key that comes back.
	keys, vals = all()
	a.del(20)
	wantErr(t, checkContents(ms, scanOf(keys, vals)), "absent from the model")
	b.del(3)
	keys, vals = all()
	keys, vals = append(keys, appendKey(nil, 'b', 3)), append(vals, appendValue(nil, 'b', 3, 1))
	wantErr(t, checkContents(ms, scanOf(keys, vals)), "past the end")

	// A stale value after recovery.
	a.put(30)
	keys, vals = all()
	for i, k := range keys {
		if string(k) == string(appendKey(nil, 'a', 30)) {
			vals[i] = appendValue(nil, 'a', 30, 1)
		}
	}
	wantErr(t, checkContents(ms, scanOf(keys, vals)), "stale")
}

func TestQuantileRefusesShortTail(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, err := quantile(s, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1000: %d, %v; want 990", v, err)
	}
	if _, err := quantile(s[:999], 0.99); !errors.Is(err, errShortTail) {
		t.Fatalf("p99 of 999 samples (9 beyond): %v, want errShortTail", err)
	}
	if v, err := quantile(s[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 20: %d, %v; want 10", v, err)
	}
	if _, err := quantile(s[:19], 0.5); !errors.Is(err, errShortTail) {
		t.Fatalf("p50 of 19 samples (9 beyond): %v, want errShortTail", err)
	}
	if _, err := quantile(nil, 0.5); !errors.Is(err, errShortTail) {
		t.Fatalf("p50 of no samples: %v, want errShortTail", err)
	}
	var l lat
	for i := 0; i < 999; i++ {
		l.ns = append(l.ns, int64(i))
	}
	if _, err := l.pct(0.99); !errors.Is(err, errShortTail) {
		t.Fatalf("p99 of 999 samples: %v, want errShortTail", err)
	}
	if v, err := l.pct(0.5); err != nil || v != 0.499 {
		t.Fatalf("p50 of 999 samples: %v, %v; want 0.499", v, err)
	}
}

func TestPctMedianOfChunks(t *testing.T) {
	var l lat
	// Three chunks; the middle one has a slow tail that the median of
	// the chunks' p99s does not follow.
	for c := 0; c < 3; c++ {
		for i := 0; i < chunk; i++ {
			v := int64(1000)
			if c == 1 && i%50 == 0 {
				v = 1e9
			}
			l.ns = append(l.ns, v)
		}
	}
	l.ns = append(l.ns, 5, 5, 5) // a part chunk joins the last one
	p50, err50 := l.pct(0.5)
	p99, err99 := l.pct(0.99)
	if err50 != nil || err99 != nil || p50 != 1 || p99 != 1 {
		t.Fatalf("pct = %v %v, %v %v; want 1 1", p50, err50, p99, err99)
	}
}

func TestPermuteIsBijective(t *testing.T) {
	const bits = 12
	seen := make([]bool, 1<<bits)
	for x := uint32(0); x < 1<<bits; x++ {
		y := permute(x, bits, 42)
		if y >= 1<<bits || seen[y] {
			t.Fatalf("permute(%d) = %d repeats or leaves the range", x, y)
		}
		seen[y] = true
	}
}
