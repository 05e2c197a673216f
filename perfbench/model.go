package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// The model is the benchmark's own record of what the store must hold,
// kept apart from the program under test: one model per key partition,
// updated in the order the writer issued its requests. Every verdict and
// every page the program returns is checked against it.

const (
	keySize = 16
	valSize = 100
)

// appendKey encodes partition part's slot as a fixed-width key, so byte
// order equals (partition, slot) order: 'k', the partition letter, and 14
// decimal digits.
func appendKey(dst []byte, part byte, slot uint32) []byte {
	dst = append(dst, 'k', part)
	var d [14]byte
	for i := len(d) - 1; i >= 0; i-- {
		d[i] = '0' + byte(slot%10)
		slot /= 10
	}
	return append(dst, d[:]...)
}

// parseKey inverts appendKey.
func parseKey(k []byte) (part byte, slot uint32, ok bool) {
	if len(k) != keySize || k[0] != 'k' {
		return 0, 0, false
	}
	var s uint64
	for _, c := range k[2:] {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		s = s*10 + uint64(c-'0')
	}
	if s > 1<<32-1 {
		return 0, 0, false
	}
	return k[1], uint32(s), true
}

// appendValue renders the valSize-byte value of (part, slot) at version
// ver: a stale version or another key's value never compares equal.
func appendValue(dst []byte, part byte, slot, ver uint32) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, valSize)...)
	v := dst[n:]
	binary.BigEndian.PutUint32(v[0:], ver)
	binary.BigEndian.PutUint32(v[4:], slot)
	v[8] = part
	x := uint64(slot)<<32 | uint64(ver)
	for i := 9; i < valSize; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v[i] = byte(x >> 56)
	}
	return dst
}

// permute is a seeded bijection on [0, 2^bits). It maps insertion order
// and Zipf ranks to slots, so that consecutive inserts and hot keys land
// all over the key space, hence on many pages and shards.
func permute(x uint32, bits uint, seed int64) uint32 {
	mask := uint32(1)<<bits - 1
	x = (x + uint32(seed)*0x9E3779B9) & mask
	for i := 0; i < 3; i++ {
		x = (x * 0x2C1B3C6D) & mask // odd multiplier: invertible mod 2^bits
		x ^= x >> (bits / 2)
	}
	return x
}

// model tracks one partition: the version of every slot (0 = absent) and
// the live slots, for uniform picks among present keys.
type model struct {
	part byte
	ver  []uint32
	live []uint32
	pos  []int32 // slot → index in live, -1 when absent
	vbuf []byte
}

func newModel(part byte, slots int) *model {
	m := &model{part: part, ver: make([]uint32, slots), pos: make([]int32, slots)}
	for i := range m.pos {
		m.pos[i] = -1
	}
	return m
}

func (m *model) slots() int { return len(m.ver) }
func (m *model) count() int { return len(m.live) }

// present reports whether slot holds a key.
func (m *model) present(slot uint32) bool { return m.ver[slot] != 0 }

// put records an acknowledged upsert and returns the new version.
func (m *model) put(slot uint32) uint32 {
	if m.ver[slot] == 0 {
		m.pos[slot] = int32(len(m.live))
		m.live = append(m.live, slot)
	}
	m.ver[slot]++
	if m.ver[slot] == 0 { // wrapped; versions only need to differ
		m.ver[slot] = 1
	}
	return m.ver[slot]
}

// del records a delete and reports whether the key was present.
func (m *model) del(slot uint32) bool {
	if m.ver[slot] == 0 {
		return false
	}
	m.ver[slot] = 0
	i := m.pos[slot]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	m.pos[slot] = -1
	return true
}

// pick returns the i-th live slot (caller draws i uniformly).
func (m *model) pick(i int) uint32 { return m.live[i] }

// value returns the expected value of a present slot (valid until the
// next call).
func (m *model) value(slot uint32) []byte {
	m.vbuf = appendValue(m.vbuf[:0], m.part, slot, m.ver[slot])
	return m.vbuf
}

// checkGet checks a GET verdict against the model.
func (m *model) checkGet(slot uint32, val []byte, found bool) error {
	want := m.present(slot)
	switch {
	case found && !want:
		return fmt.Errorf("GET %s: found a value for a key that is absent (deleted or never written)", appendKey(nil, m.part, slot))
	case !found && want:
		return fmt.Errorf("GET %s: not found, want version %d", appendKey(nil, m.part, slot), m.ver[slot])
	case found && !bytes.Equal(val, m.value(slot)):
		return fmt.Errorf("GET %s: stale or wrong value (got version %d, want %d)",
			appendKey(nil, m.part, slot), versionOf(val), m.ver[slot])
	}
	return nil
}

// versionOf reads the version a value claims, for error messages.
func versionOf(v []byte) uint32 {
	if len(v) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// cursor walks the expected contents of a set of models in key order:
// partitions in byte order, slots ascending, present slots only.
type cursor struct {
	ms   []*model // sorted by part
	mi   int
	slot uint32
	hi   uint32 // last slot of the walk (inclusive) in the final model
}

// next returns the next expected (model, slot), or ok=false at the end.
func (c *cursor) next() (*model, uint32, bool) {
	for c.mi < len(c.ms) {
		m := c.ms[c.mi]
		end := uint32(m.slots() - 1)
		if c.mi == len(c.ms)-1 && c.hi < end {
			end = c.hi
		}
		for c.slot <= end && int(c.slot) < m.slots() {
			s := c.slot
			c.slot++
			if m.ver[s] != 0 {
				return m, s, true
			}
		}
		c.mi++
		c.slot = 0
	}
	return nil, 0, false
}

// streamCheck checks a key-ordered stream of pairs against the expected
// walk. It reports a key the models do not hold (deleted or never
// written), a key they hold that the stream skipped (a lost write), a
// stale value, or pairs out of order. limit < 0 means unbounded; with a
// limit, the stream may stop after limit pairs.
type streamCheck struct {
	c     cursor
	limit int
	n     int
	prev  []byte
	pend  *model // expected entry not yet matched
	pslot uint32
	pok   bool
	err   error
}

func newStreamCheck(ms []*model, loSlot, hiSlot uint32, limit int) *streamCheck {
	sc := &streamCheck{c: cursor{ms: ms, slot: loSlot, hi: hiSlot}, limit: limit}
	sc.pend, sc.pslot, sc.pok = sc.c.next()
	return sc
}

// pair consumes one pair; it returns false once a mismatch was found.
func (sc *streamCheck) pair(k, v []byte) bool {
	if sc.err != nil {
		return false
	}
	if sc.prev != nil && bytes.Compare(k, sc.prev) <= 0 {
		sc.err = fmt.Errorf("pairs out of order: %q after %q", k, sc.prev)
		return false
	}
	sc.prev = append(sc.prev[:0], k...)
	sc.n++
	if sc.limit >= 0 && sc.n > sc.limit {
		sc.err = fmt.Errorf("page holds %d pairs, past its limit %d", sc.n, sc.limit)
		return false
	}
	_, slot, ok := parseKey(k)
	if !ok {
		sc.err = fmt.Errorf("unknown key %q", k)
		return false
	}
	if !sc.pok {
		sc.err = fmt.Errorf("key %q past the end of the expected range (past its bound, or a deleted key returned)", k)
		return false
	}
	want := appendKey(nil, sc.pend.part, sc.pslot)
	switch c := bytes.Compare(k, want); {
	case c < 0:
		sc.err = fmt.Errorf("key %q returned but absent from the model (deleted or never written)", k)
		return false
	case c > 0:
		sc.err = fmt.Errorf("acked key %q missing (lost write): next returned key is %q", want, k)
		return false
	}
	if !bytes.Equal(v, sc.pend.value(slot)) {
		sc.err = fmt.Errorf("key %q: stale or wrong value (got version %d, want %d)", k, versionOf(v), sc.pend.ver[slot])
		return false
	}
	sc.pend, sc.pslot, sc.pok = sc.c.next()
	return true
}

// done finishes the stream: a complete stream (limit not reached) must
// have consumed every expected entry.
func (sc *streamCheck) done() error {
	if sc.err != nil {
		return sc.err
	}
	if sc.pok && (sc.limit < 0 || sc.n < sc.limit) {
		return fmt.Errorf("acked key %q missing (lost write) after %d pairs", appendKey(nil, sc.pend.part, sc.pslot), sc.n)
	}
	return nil
}

// checkScanPage checks one SCAN page over [lo, hi] of a single partition
// with the given limit.
func (m *model) checkScanPage(lo, hi uint32, limit int, keys, vals [][]byte) error {
	fail := func(err error) error { return fmt.Errorf("SCAN [%d, %d] limit %d: %w", lo, hi, limit, err) }
	for i, k := range keys {
		if i > 0 && bytes.Compare(k, keys[i-1]) <= 0 {
			return fail(fmt.Errorf("pairs out of order: %q after %q", k, keys[i-1]))
		}
		if part, slot, ok := parseKey(k); !ok || part != m.part || slot < lo || slot > hi {
			return fail(fmt.Errorf("key %q past its bound", k))
		}
	}
	if len(keys) > limit {
		return fail(fmt.Errorf("page holds %d pairs, past its limit", len(keys)))
	}
	sc := newStreamCheck([]*model{m}, lo, hi, limit)
	for i := range keys {
		if !sc.pair(keys[i], vals[i]) {
			break
		}
	}
	if err := sc.done(); err != nil {
		return fail(err)
	}
	return nil
}

// checkContents checks a full key-ordered scan of the store against the
// union of the models (sorted by partition): every acknowledged write is
// present with its last value, and no deleted key is there.
func checkContents(ms []*model, scan func(fn func(k, v []byte) bool) error) error {
	sc := newStreamCheck(ms, 0, ^uint32(0), -1)
	if err := scan(sc.pair); err != nil && sc.err == nil {
		return fmt.Errorf("full scan: %w", err)
	}
	if err := sc.done(); err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	return nil
}

// liveCount sums the models' key counts.
func liveCount(ms []*model) int {
	n := 0
	for _, m := range ms {
		n += m.count()
	}
	return n
}
