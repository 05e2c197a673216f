package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/server"
	"fasp/internal/server/client"
	"fasp/internal/server/wire"
)

// The wire workload runs an in-process faspserver over a 4-shard store
// preloaded with 100k keys, and drives it over loopback TCP through the
// client package. Each connection owns one key partition, so each of its
// answers has one exact expected value in its model.

const (
	wireShards  = 4
	wirePreload = 100_000

	pipeSlotLg    = 16 // wire-pipelined: two partitions of 2^16 slots
	pipeConns     = 2
	pipeWindow    = 32
	pipeRoundOps  = 6_000 // per connection
	pipeBatch     = 8
	pipeZipfS     = 1.1
	preloadChunk  = 1_024
	crashEvictPct = 50
)

// Request mixes, in percent.
const (
	pipeGet      = 49
	pipePut      = 35
	pipeDel      = 5
	pipeBatchPct = 10
	// the remaining 1% of wire-pipelined are 32-key scans
)

// wireEnv is one set-up: store, server and client connections.
type wireEnv struct {
	kv     *fasp.KV
	srv    *server.Server
	served chan error
	cls    []*client.Client
	models []*model
}

// openWire sets up once: open the sharded store, preload it through
// ApplyBatch (deterministic group commits), start the server and dial one
// connection per partition.
func openWire(seed int64, parts int, slotLg uint) (*wireEnv, error) {
	kv, err := fasp.OpenKV(fasp.Options{Shards: wireShards})
	if err != nil {
		return nil, err
	}
	env := &wireEnv{kv: kv}
	per := wirePreload / parts
	ops := make([]fasp.Op, 0, preloadChunk)
	commit := func() error {
		for i, err := range kv.ApplyBatch(ops) {
			if err != nil {
				return fmt.Errorf("preload %s: %w", ops[i].Key, err)
			}
		}
		ops = ops[:0]
		return nil
	}
	for p := 0; p < parts; p++ {
		m := newModel(byte('a'+p), 1<<slotLg)
		env.models = append(env.models, m)
		for i := 0; i < per; i++ {
			slot := permute(uint32(i), slotLg, seed+int64(p))
			ver := m.put(slot)
			ops = append(ops, fasp.Op{Kind: fasp.OpPut, Key: appendKey(nil, m.part, slot), Val: appendValue(nil, m.part, slot, ver)})
			if len(ops) == preloadChunk {
				if err := commit(); err != nil {
					env.close()
					return nil, err
				}
			}
		}
	}
	if err := commit(); err != nil {
		env.close()
		return nil, err
	}
	env.srv = server.New(kv, server.Config{ScanLimit: scanLimit, NoMetricsSource: true})
	addr, err := env.srv.Listen("127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.served = make(chan error, 1)
	go func() { env.served <- env.srv.Serve() }()
	for p := 0; p < parts; p++ {
		cl, err := client.Dial(addr)
		if err != nil {
			env.close()
			return nil, err
		}
		env.cls = append(env.cls, cl)
	}
	return env, nil
}

// stop shuts the server down and waits for Serve to return.
func (e *wireEnv) stop() {
	if e.srv == nil {
		return
	}
	for _, cl := range e.cls {
		cl.Close()
	}
	e.cls = nil
	e.srv.Shutdown()
	if e.served != nil {
		<-e.served
	}
	e.srv = nil
}

func (e *wireEnv) close() {
	e.stop()
	e.kv.Close()
}

// conn is the state of one client connection.
type conn struct {
	cl   *client.Client
	m    *model
	rng  *rand.Rand
	tr   *tracer
	lats [3]lat
	w    work
	res  *result
	mu   *sync.Mutex // guards res when connections run concurrently

	key, val   []byte
	keys, vals [][]byte
}

func newConn(cl *client.Client, m *model, seed int64, res *result, mu *sync.Mutex, base time.Time) *conn {
	return &conn{cl: cl, m: m, rng: rand.New(rand.NewSource(seed)), tr: newTracer(base), res: res, mu: mu}
}

func (c *conn) problem(err error) {
	c.mu.Lock()
	c.res.problem(err)
	c.mu.Unlock()
}

// failed counts an operation the program refused or could not answer.
func (c *conn) failed(op string, err error) {
	c.mu.Lock()
	c.res.fail(op, err)
	c.mu.Unlock()
}

// recv times one reply.
func (c *conn) recv() (wire.Code, []byte, error) {
	c.tr.begin(lClientRecv)
	code, payload, err := c.cl.Recv()
	c.tr.end()
	return code, payload, err
}

func (c *conn) flush() error {
	c.tr.begin(lClientFlush)
	err := c.cl.Flush()
	c.tr.end()
	return err
}

// scan runs one synchronous 32-key SCAN from slot lo to the end of the
// partition and checks the page.
func (c *conn) scan(lo uint32) {
	m := c.m
	hi := uint32(m.slots() - 1)
	c.key = appendKey(c.key[:0], m.part, lo)
	hiKey := appendKey(nil, m.part, hi)
	c.keys, c.vals = c.keys[:0], c.vals[:0]
	t := time.Now()
	c.tr.begin(lClientScan)
	err := c.cl.Scan(c.key, hiKey, false, func(k, v []byte) bool {
		c.keys = append(c.keys, append([]byte(nil), k...))
		c.vals = append(c.vals, append([]byte(nil), v...))
		return len(c.keys) < scanLimit
	})
	c.tr.end()
	c.lats[2].add(time.Since(t))
	if err != nil {
		c.failed("SCAN", err)
		return
	}
	if err := m.checkScanPage(lo, hi, scanLimit, c.keys, c.vals); err != nil {
		c.problem(err)
	}
}

// ack checks a write's reply: OK, counted as a committed write. A
// logical verdict (key absent, say) is a wrong answer; any other code is a
// refusal, counted as a failed operation.
func (c *conn) ack(op string, code wire.Code, payload []byte, err error, bytes int) {
	switch {
	case err != nil:
		c.failed(op, err)
	case code.Logical():
		c.problem(fmt.Errorf("%s answered %v, want OK", op, code))
	case code != wire.CodeOK:
		c.failed(op, client.Err(code, payload))
	default:
		c.w.writes++
		c.w.userBytes += int64(bytes)
	}
}

// --- wire-pipelined ----------------------------------------------------------

// expect is a pipelined request's expected reply, fixed when it was
// queued: the connection's requests are answered in order.
type expect struct {
	op    byte
	slot  uint32
	ver   uint32 // GET: version expected (0 = absent); DEL: 1 if present
	bytes int
	t     time.Time
}

// pipe runs the pipelined rounds of one connection.
type pipe struct {
	*conn
	zipf *rand.Zipf
	perm int64
	q    []expect
	ops  []wire.BatchOp
	bvs  [pipeBatch][]byte
}

func (p *pipe) zkey() uint32 {
	return permute(uint32(p.zipf.Uint64()), pipeSlotLg, p.perm)
}

// round keeps pipeWindow requests in flight until pipeRoundOps have been
// answered: GET 49%, PUT 35%, DEL 5%, BATCH of 8 PUTs 10%, keys Zipf
// over the partition. 1% are 32-key SCANs, which the client only sends
// synchronously, so the window drains before each.
func (p *pipe) round() {
	m := p.m
	for i := 0; i < pipeRoundOps; i++ {
		r := p.rng.Intn(100)
		if r >= pipeGet+pipePut+pipeDel+pipeBatchPct {
			p.drain()
			p.scan(p.zkey())
			p.w.ops++
			continue
		}
		p.tr.begin(lClientQueue)
		e := expect{t: time.Now()}
		switch {
		case r < pipeGet:
			e.op, e.slot = wire.OpGet, p.zkey()
			e.ver = m.ver[e.slot]
			p.key = appendKey(p.key[:0], m.part, e.slot)
			p.cl.QueueGet(p.key)
		case r < pipeGet+pipePut:
			e.op, e.slot = wire.OpPut, p.zkey()
			ver := m.put(e.slot)
			p.key = appendKey(p.key[:0], m.part, e.slot)
			p.val = appendValue(p.val[:0], m.part, e.slot, ver)
			e.bytes = len(p.key) + len(p.val)
			p.cl.QueuePut(p.key, p.val)
		case r < pipeGet+pipePut+pipeDel:
			e.op, e.slot = wire.OpDel, p.zkey()
			if m.del(e.slot) {
				e.ver = 1
			}
			p.key = appendKey(p.key[:0], m.part, e.slot)
			e.bytes = len(p.key)
			p.cl.QueueDel(p.key)
		default:
			e.op = wire.OpBatch
			p.ops = p.ops[:0]
			for j := 0; j < pipeBatch; j++ {
				slot := p.zkey()
				for p.inBatch(slot) {
					slot = p.zkey()
				}
				ver := m.put(slot)
				k := appendKey(nil, m.part, slot)
				p.bvs[j] = appendValue(p.bvs[j][:0], m.part, slot, ver)
				p.ops = append(p.ops, wire.BatchOp{Kind: wire.KindPut, Key: k, Val: p.bvs[j]})
				e.bytes += len(k) + valSize
			}
			p.cl.QueueBatch(p.ops)
		}
		p.tr.end()
		p.q = append(p.q, e)
		if p.cl.Pending() >= pipeWindow {
			if err := p.flush(); err != nil {
				p.failed("flush", err)
				return
			}
			p.recvOne()
		}
	}
	p.drain()
}

func (p *pipe) inBatch(slot uint32) bool {
	for _, op := range p.ops {
		if _, s, _ := parseKey(op.Key); s == slot {
			return true
		}
	}
	return false
}

// drain flushes and reads every outstanding reply.
func (p *pipe) drain() {
	if p.cl.Pending() == 0 {
		return
	}
	if err := p.flush(); err != nil {
		p.failed("flush", err)
		return
	}
	for len(p.q) > 0 {
		p.recvOne()
	}
}

// recvOne reads the oldest outstanding reply and checks it.
func (p *pipe) recvOne() {
	e := p.q[0]
	p.q = p.q[1:]
	code, payload, err := p.recv()
	d := time.Since(e.t)
	p.w.ops++
	if err != nil {
		p.failed(wire.OpName(e.op), err)
		return
	}
	m := p.m
	switch e.op {
	case wire.OpGet:
		p.lats[1].add(d)
		p.w.gets++
		if code != wire.CodeOK && code != wire.CodeNotFound {
			p.failed("GET", client.Err(code, payload))
			return
		}
		want := e.ver != 0
		switch found := code == wire.CodeOK; {
		case found != want:
			p.problem(fmt.Errorf("GET %s: found=%v, want %v (version %d)", appendKey(nil, m.part, e.slot), found, want, e.ver))
		case found && string(payload) != string(appendValue(nil, m.part, e.slot, e.ver)):
			p.problem(fmt.Errorf("GET %s: stale or wrong value (got version %d, want %d)", appendKey(nil, m.part, e.slot), versionOf(payload), e.ver))
		}
	case wire.OpPut:
		p.lats[0].add(d)
		p.ack("PUT", code, payload, nil, e.bytes)
	case wire.OpDel:
		p.lats[0].add(d)
		switch {
		case e.ver == 1:
			p.ack("DEL", code, payload, nil, e.bytes)
		case code == wire.CodeOK:
			p.problem(fmt.Errorf("DEL %s of an absent key answered OK, want key-absent", appendKey(nil, m.part, e.slot)))
		case code != wire.CodeKeyAbsent:
			p.failed("DEL", client.Err(code, payload))
		}
	case wire.OpBatch:
		if code != wire.CodeOK {
			p.failed("BATCH", client.Err(code, payload))
			return
		}
		codes, err := wire.ParseBatchReply(payload, nil)
		if err != nil || len(codes) != pipeBatch {
			p.problem(fmt.Errorf("BATCH reply: %d codes, %v", len(codes), err))
			return
		}
		for _, c := range codes {
			if c != wire.CodeOK {
				p.problem(fmt.Errorf("BATCH verdict %v, want OK", c))
				return
			}
		}
		p.w.writes += pipeBatch
		p.w.userBytes += int64(e.bytes)
	}
}

func runWirePipelined(o options) (*result, error) {
	return runWire(o, wireSpec{parts: pipeConns, slotLg: pipeSlotLg, occupancy: min(wireShards, pipeConns*pipeWindow),
		rounds: func(c *conn) func() {
			r := rand.New(rand.NewSource(o.seed*7 + int64(c.m.part)))
			p := &pipe{conn: c, zipf: rand.NewZipf(r, pipeZipfS, 1, uint64(c.m.slots()-1)), perm: o.seed + 100 + int64(c.m.part)}
			return p.round
		}})
}

// --- shared runner -----------------------------------------------------------

// wireSpec describes a wire workload.
type wireSpec struct {
	parts     int                // connections, one key partition each
	slotLg    uint               // 2^slotLg slots per partition
	occupancy int                // shards the in-flight requests can keep busy
	rounds    func(*conn) func() // returns a connection's round function
}

// runWire sets up, runs whole rounds of the workload on every connection
// concurrently until the run has measured long enough, then checks the
// store, and crashes and reopens it.
func runWire(o options, spec wireSpec) (*result, error) {
	res := newResult()
	parts := spec.parts
	t := time.Now()
	env, err := openWire(o.seed, parts, spec.slotLg)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.setup = time.Since(t).Seconds()
	heap := heapMiB()
	var ref *refKernel
	var refMiB float64
	if !o.trace {
		if ref, refMiB, err = newRefKernel(); err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex
	base := time.Now()
	conns := make([]*conn, parts)
	rounds := make([]func(), parts)
	for i := range conns {
		conns[i] = newConn(env.cls[i], env.models[i], o.seed*1000+int64(i), res, &mu, base)
		rounds[i] = spec.rounds(conns[i])
	}
	a, err := snapStore(env.kv)
	if err != nil {
		return nil, err
	}
	sa := env.srv.Snapshot()
	var ac acct
	t0 := time.Now()
	for r := 0; o.another(r, t0); r++ {
		kind := o.kind(r)
		for _, c := range conns {
			c.tr.on = kind == traced
		}
		before := totalOps(conns)
		p0 := procNow()
		var wg sync.WaitGroup
		for _, round := range rounds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				round()
			}()
		}
		wg.Wait()
		ac.add(kind, totalOps(conns)-before, p0, procNow())
		res.refNS = ref.sample(res.refNS)
	}
	for _, c := range conns {
		c.tr.on = false
	}
	rss, err := rssMiB()
	if err != nil {
		return nil, err
	}
	res.e2e["rss_mib"] = rss - refMiB
	runtime.KeepAlive(ref) // so that rss counts the kernel refMiB takes off
	sb := env.srv.Snapshot()
	b, err := snapStore(env.kv)
	if err != nil {
		return nil, err
	}
	var w work
	var lats [3]lat
	var trs []*tracer
	for _, c := range conns {
		w.add(c.w)
		for i := range lats {
			lats[i].ns = append(lats[i].ns, c.lats[i].ns...)
		}
		trs = append(trs, c.tr)
	}
	res.attempted = w.ops

	// Simulated write throughput by the makespan rule: the busiest
	// shard's clock advance, or the total simulated work spread over the
	// shards the in-flight requests can occupy, whichever is larger.
	elapsed := max(b.simMax-a.simMax, (b.simSum-a.simSum)/int64(spec.occupancy))
	res.e2e["sim_write_ops_s"] = ratio(float64(w.writes), float64(elapsed)/1e9)
	if err := checkMethod(a, b); err != nil {
		res.problem(err)
	}
	storeLayers(res.layer, a, b, w, liveCount(env.models))
	serverLayers(res.layer, sa, sb, w)

	lt := summarise(trs...)
	rows := [][2]string{
		fmtRow("server.requests", "%d", opCount(sb)-opCount(sa)),
		fmtRow("server.wall(get,put,scan)", "p50 %.1f / %.1f / %.1f us, p99 %.1f / %.1f / %.1f us",
			res.layer["server.get_wall_us"], res.layer["server.write_wall_us"], res.layer["server.scan_wall_us"],
			float64(serverOp(sb, "get").WallP99NS)/1e3, float64(serverOp(sb, "put").WallP99NS)/1e3, float64(serverOp(sb, "scan").WallP99NS)/1e3),
		fmtRow("shard.wall(get,put)", "p50 %.1f / %.1f us, p99 %.1f / %.1f us",
			res.layer["shard.get_wall_us"], res.layer["shard.write_wall_us"],
			float64(b.m.OpStats(obsv.OpGet).WallP99NS)/1e3, float64(b.m.OpStats(obsv.OpPut).WallP99NS)/1e3),
		fmtRow("store.sim_ns_per_write", "%.1f", ratio(float64(b.simSum-a.simSum), float64(w.writes))),
	}
	ac.finish(res, lats, heap, o, lt, rows)
	res.layer["client.transport_us"] = res.e2e["get_p50_us"] - res.layer["server.get_wall_us"]

	// Checks after the measured phase, outside timing: the store and a
	// connection's COUNT equal the union of the models.
	if err := checkStore(env.kv, env.models); err != nil {
		res.problem(fmt.Errorf("after the measured phase: %w", err))
	}
	if n, err := env.cls[0].Count(); err != nil || int(n) != liveCount(env.models) {
		res.problem(fmt.Errorf("COUNT over the wire: %d, %v; want %d", n, err, liveCount(env.models)))
	}
	env.stop()
	env.kv.Crash(fasp.CrashOptions{Seed: o.seed, EvictProb: crashEvictPct / 100.0})
	if err := env.kv.ReopenKV(); err != nil {
		res.problem(fmt.Errorf("reopen after crash: %w", err))
	} else if err := checkStore(env.kv, env.models); err != nil {
		res.problem(fmt.Errorf("after crash and reopen: %w", err))
	}
	return res, nil
}

func totalOps(cs []*conn) int64 {
	var n int64
	for _, c := range cs {
		n += c.w.ops
	}
	return n
}

func opCount(s obsv.ServerSnapshot) int64 {
	var n int64
	for _, op := range s.Ops {
		n += op.Count
	}
	return n
}

func serverOp(s obsv.ServerSnapshot, name string) obsv.ServerOpStats {
	for _, op := range s.Ops {
		if op.Op == name {
			return op
		}
	}
	return obsv.ServerOpStats{}
}

// serverLayers derives the server metrics from two server snapshots. The
// request wall percentiles are the server's since it started, which is
// the measured phase: set-up sends no requests.
func serverLayers(out map[string]float64, a, b obsv.ServerSnapshot, w work) {
	out["server.get_wall_us"] = float64(serverOp(b, "get").WallP50NS) / 1e3
	out["server.write_wall_us"] = float64(serverOp(b, "put").WallP50NS) / 1e3
	out["server.scan_wall_us"] = float64(serverOp(b, "scan").WallP50NS) / 1e3
	out["server.submit_width"] = histMean(a.Coalesce, b.Coalesce)
	out["server.shard_round_width"] = histMean(a.ShardCoalesce, b.ShardCoalesce)
	out["server.pipe_occupancy"] = histMean(a.PipeOccupancy, b.PipeOccupancy)
	out["server.bytes_per_op"] = ratio(float64(b.BytesIn+b.BytesOut-a.BytesIn-a.BytesOut), float64(w.ops))
}
