package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/staging"
	"repro/internal/stream"
)

// The engine-direct workloads: window-exchange pushes owned batches into
// engine.StartStaged in process; window-cluster runs the same plan and
// inputs on engine.StartDistributed over two cluster workers on loopback.
// A period boundary is Stop plus a fresh Start, which is what an admission
// cycle does to the executor.

const (
	windowBatch     = 64    // tuples per closed-loop push, dsmsd's default batch
	windowOpenBatch = 256   // tuples per open-loop push
	windowPeriod    = 32768 // closed-loop tuples per period: 2048 per symbol
	windowWarmup    = 32768 // warm-up period, timed as part of set-up
	clusterWorkers  = 2
)

// windowRate is the open-loop input rate, well below either executor's
// closed-loop throughput.
func windowRate(clustered bool) float64 {
	if clustered {
		return 32000
	}
	return 64000
}

// sink collects one query's results from its tap.
type sink struct {
	q  qspec
	mu sync.Mutex
	d  digest
}

// openLoop is the schedule the taps time results against during the
// open-loop period.
type openLoop struct {
	base     time.Time
	interval time.Duration
	batch    int
	pushedAt []atomic.Int64 // ns since base of each batch's actual push
	stopping atomic.Bool    // set before Stop: drain emissions are not timed

	mu     sync.Mutex
	lat    []float64 // ms from scheduled send of the completing batch
	tapLag []float64 // ms from actual push of the completing batch
}

type windowSys struct {
	r         *run
	clustered bool
	queries   []qspec
	payload   cluster.PlanPayload
	factory   func() (*engine.Plan, error)
	sinks     []*sink
	taps      map[string]func([]stream.Tuple)
	open      atomic.Pointer[openLoop]

	workers []*cluster.Worker
	serving sync.WaitGroup
	links   []*cluster.Client
	hosts   []engine.RemoteShardHost
	proxies []*byteProxy

	exec      engine.Executor
	lastStart float64 // ms the last Start took
}

func runWindows(r *run, clustered bool) error {
	rng := rand.New(rand.NewSource(r.seed))
	warmQuotes := genQuotes(rng, windowWarmup)
	warm := toTuples(warmQuotes)
	closed := genQuotes(rng, windowPeriod)
	closedTuples := toTuples(closed)
	rate := windowRate(clustered)
	openDur := openPeriod
	nOpen := int(rate*openDur.Seconds()) / (windowOpenBatch * numSymbols) * windowOpenBatch * numSymbols
	open := genQuotes(rng, max(nOpen, windowOpenBatch*numSymbols))
	openTuples := toTuples(open)

	ws := &windowSys{r: r, clustered: clustered, queries: windowQueries()}
	ws.payload = cluster.PlanPayload{Sources: []cluster.SourceSpec{{Name: "stocks", Fields: schemaFields(market.QuoteSchema)}}}
	for _, q := range ws.queries {
		ws.payload.Queries = append(ws.payload.Queries, cluster.QuerySpec{User: 1, Tenant: q.tenant, Name: q.id(), CQL: q.cql()})
	}
	ws.taps = map[string]func([]stream.Tuple){}
	for _, q := range ws.queries {
		s := &sink{q: q}
		ws.sinks = append(ws.sinks, s)
		ws.taps[q.id()] = ws.tap(s)
	}
	// The oracle, computed once per input set before any clock starts.
	want := func(in []quote) []digest {
		out := make([]digest, len(ws.queries))
		for i, q := range ws.queries {
			out[i] = windowDigest(q, in)
		}
		return out
	}
	warmWant, closedWant, openWant := want(warmQuotes), want(closed), want(open)
	closedMid := make([]int64, len(ws.queries))
	for i, q := range ws.queries {
		closedMid[i] = midRunCount(q, closed)
	}

	// Set-up: fresh instances, each from the first call into the program
	// until its warm-up period's results have all arrived.
	for i := 0; i < setups; i++ {
		if i > 0 {
			ws.teardown()
		}
		t0, since := time.Now(), markSteal()
		if err := ws.build(); err != nil {
			return err
		}
		if err := ws.start(); err != nil {
			return err
		}
		ws.pushAll(warm, windowBatch)
		ws.stop()
		r.addSetup(time.Since(t0), since)
		ws.verify(warmWant)
	}
	defer ws.teardown()

	// Open loop: periods at a fixed rate.
	var tapLag []float64
	for i := r.openPeriods(); i > 0; i-- {
		since := markSteal()
		if err := ws.start(); err != nil {
			return err
		}
		ol := ws.runOpen(openTuples, rate)
		ol.stopping.Store(true)
		ws.stop()
		ws.open.Store(nil)
		ws.verify(openWant)
		r.addLatency(ol.lat, since)
		tapLag = append(tapLag, ol.tapLag...)
	}
	r.layer["engine.tap_lag_ms"] = median(tapLag)

	// Closed loop: whole periods.
	perSecond := 5.5
	if clustered {
		perSecond = 3.3
	}
	for round := r.closedRounds(perSecond); round > 0; round-- {
		since := markSteal()
		mem := startMem()
		if err := ws.start(); err != nil {
			return err
		}
		t0 := time.Now()
		ws.pushAll(closedTuples, windowBatch)
		ws.awaitResults(closedMid)
		pushed := time.Since(t0)
		tStop := time.Now()
		ws.stop()
		stopped := time.Since(tStop)
		r.readHeap()
		mem.finish(r, len(closedTuples))
		r.addRound(len(closedTuples), pushed+stopped, ms(stopped)+ws.lastStart, since)
		ws.layerStats(len(closedTuples))
		ws.verify(closedWant)
	}
	return nil
}

func toTuples(qs []quote) []stream.Tuple {
	out := make([]stream.Tuple, len(qs))
	for i, q := range qs {
		out[i] = stream.NewTuple(q.ts, q.symbol, q.price, q.volume)
	}
	return out
}

func schemaFields(s *stream.Schema) []stream.Field {
	out := make([]stream.Field, s.NumFields())
	for i := range out {
		out[i] = s.Field(i)
	}
	return out
}

// tap returns a sink's result consumer: it folds the batch into the sink's
// digest and, during the open-loop period, times each result against the
// batch that carried its last contributing tuple (the result's Ts).
func (ws *windowSys) tap(s *sink) func([]stream.Tuple) {
	return func(b []stream.Tuple) {
		arrived := time.Now()
		sp := ws.r.tr.root("engine.tap")
		var d digest
		for _, t := range b {
			if len(t.Vals) != 2 {
				d.add(valueHash(fmt.Sprint(t.Vals)))
				continue
			}
			d.add(windowFingerprint(t.Ts, t.Vals[0], t.Vals[1]))
		}
		s.mu.Lock()
		s.d.n += d.n
		s.d.sum += d.sum
		s.mu.Unlock()
		if ol := ws.open.Load(); ol != nil && !ol.stopping.Load() {
			at := arrived.Sub(ol.base)
			ol.mu.Lock()
			for _, t := range b {
				k := int(t.Ts-1) / ol.batch
				if k < 0 || k >= len(ol.pushedAt) {
					continue
				}
				ol.lat = append(ol.lat, ms(at-time.Duration(k)*ol.interval))
				ol.tapLag = append(ol.tapLag, ms(at-time.Duration(ol.pushedAt[k].Load())))
			}
			ol.mu.Unlock()
		}
		sp.end()
		engine.PutBatch(b)
	}
}

// build compiles the plan and, on window-cluster, starts the workers and
// dials them. Compilation goes through cql and cloud.CompilePlan, the same
// path the service plane and the workers' PlanFactory take.
func (ws *windowSys) build() error {
	var err error
	if ws.factory, err = planFactory(ws.queries, stocksOnly, ws.r.tr); err != nil {
		return err
	}
	if !ws.clustered {
		return nil
	}
	ws.hosts = nil
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.Listen(cluster.WorkerConfig{Addr: "127.0.0.1:0", Name: fmt.Sprintf("w%d", i)})
		if err != nil {
			return err
		}
		ws.workers = append(ws.workers, w)
		ws.serving.Add(1)
		go func() {
			defer ws.serving.Done()
			_ = w.Serve() // returns when Close stops the listener
		}()
		addr := w.Addr()
		if ws.r.tr != nil {
			p, err := newByteProxy(addr)
			if err != nil {
				return err
			}
			ws.proxies = append(ws.proxies, p)
			addr = p.addr()
		}
		c, err := cluster.Dial(addr, cluster.DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			return err
		}
		ws.links = append(ws.links, c)
		h := timedHost{RemoteShardHost: c, tr: ws.r.tr, tuples: new(atomic.Int64)}
		ws.hosts = append(ws.hosts, h)
	}
	return nil
}

// start deploys a fresh executor: a period begins.
func (ws *windowSys) start() error {
	t0 := time.Now()
	sp := ws.r.tr.drive("engine.start")
	var err error
	if ws.clustered {
		ws.exec, err = engine.StartDistributed(ws.factory, engine.DistConfig{
			ExecConfig: engine.ExecConfig{Buf: windowBatch},
			Hosts:      ws.hosts,
			Taps:       ws.taps,
			Payload:    ws.payload,
		})
	} else {
		ws.exec, err = engine.StartStaged(ws.factory, engine.StagedConfig{
			ExecConfig: engine.ExecConfig{Buf: windowBatch},
			Taps:       ws.taps,
		})
	}
	sp.end()
	ws.lastStart = ms(time.Since(t0))
	ws.r.check(opCycle, err)
	return err
}

// stop settles the running executor: every result of the period arrives
// before it returns.
func (ws *windowSys) stop() {
	sp := ws.r.tr.drive("engine.stop")
	ws.exec.Stop()
	sp.end()
}

// pushAll pushes a period's tuples closed loop: as fast as the executor's
// backpressure accepts them, one owned batch at a time.
func (ws *windowSys) pushAll(in []stream.Tuple, batch int) {
	pusher := ws.exec.(engine.OwnedBatchPusher)
	for i := 0; i < len(in); i += batch {
		ws.push(pusher, in[i:min(i+batch, len(in))])
	}
}

func (ws *windowSys) push(pusher engine.OwnedBatchPusher, part []stream.Tuple) {
	b := append(engine.GetBatch(len(part)), part...)
	sp := ws.r.tr.drive("engine.push")
	err := pusher.PushOwnedBatch("stocks", b)
	sp.end()
	if err != nil {
		engine.PutBatch(b)
	}
	ws.r.check(opPush, err)
}

// awaitResults waits until every sink holds at least its count of results
// an arrival triggers, so that the period boundary timed next settles an
// executor with nothing left in flight but what only Stop releases. A
// missing result shows in verify; the wait gives up after a bound.
func (ws *windowSys) awaitResults(want []int64) {
	deadline := time.Now().Add(30 * time.Second)
	for i, s := range ws.sinks {
		for {
			s.mu.Lock()
			n := s.d.n
			s.mu.Unlock()
			if n >= want[i] || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// runOpen pushes one period on a fixed schedule and returns the timings the
// taps recorded. Sends are timed from when they were due, so a stall counts
// against every send it delays.
func (ws *windowSys) runOpen(in []stream.Tuple, rate float64) *openLoop {
	n := (len(in) + windowOpenBatch - 1) / windowOpenBatch
	ol := &openLoop{
		interval: time.Duration(float64(windowOpenBatch) / rate * float64(time.Second)),
		batch:    windowOpenBatch,
		pushedAt: make([]atomic.Int64, n),
	}
	pusher := ws.exec.(engine.OwnedBatchPusher)
	ol.base = time.Now().Add(5 * time.Millisecond)
	ws.open.Store(ol)
	for k := 0; k < n; k++ {
		due := ol.base.Add(time.Duration(k) * ol.interval)
		time.Sleep(time.Until(due))
		now := time.Now()
		ws.r.late = append(ws.r.late, ms(now.Sub(due)))
		ol.pushedAt[k].Store(int64(now.Sub(ol.base)))
		ws.push(pusher, in[k*windowOpenBatch:min((k+1)*windowOpenBatch, len(in))])
	}
	return ol
}

// verify compares every sink's period digest with the oracle's, then
// resets the sinks and checks the settled executor's loss counters.
func (ws *windowSys) verify(want []digest) {
	for i, s := range ws.sinks {
		s.mu.Lock()
		got := s.d
		s.d = digest{}
		s.mu.Unlock()
		ws.r.attempt(opResult, want[i].n)
		if n := mismatches(got, want[i]); n > 0 {
			ws.r.fail(opResult, n, "%s: got %d results (digest %x), want %d (digest %x)", s.q.id(), got.n, got.sum, want[i].n, want[i].sum)
		}
	}
	for _, nl := range ws.exec.Stats() {
		if nl.ShedTuples > 0 {
			ws.r.fail(opResult, nl.ShedTuples, "%s shed %d tuples", nl.Name, nl.ShedTuples)
		}
	}
	if la, ok := ws.exec.(interface{ LateArrivals() int64 }); ok && la.LateArrivals() > 0 {
		ws.r.fail(opResult, la.LateArrivals(), "%d late arrivals at the exchange merge", la.LateArrivals())
	}
	if sg, ok := ws.exec.(interface{ StagingStats() (staging.Stats, bool) }); ok {
		if st, on := sg.StagingStats(); on && st.LostTuples > 0 {
			ws.r.fail(opResult, st.LostTuples, "staging lost %d tuples", st.LostTuples)
		}
	}
}

// layerStats records the settled period's executor counters as per-layer
// metrics: exchange traffic per input tuple, shard skew, late arrivals,
// staging, and the cluster links' wire bytes.
func (ws *windowSys) layerStats(inputs int) {
	if ws.r.tr == nil {
		return
	}
	var split *engine.StageSplit
	switch x := ws.exec.(type) {
	case *engine.Staged:
		split = x.Split()
		var per []float64
		for _, sl := range x.ShardStats() {
			var n int64
			for _, nl := range sl.Loads {
				n += nl.Tuples
			}
			per = append(per, float64(n))
		}
		ws.r.layer["engine.shard_skew"] = skew(per)
	case *engine.Distributed:
		split = x.Split()
		var per []float64
		for _, h := range ws.hosts {
			per = append(per, float64(h.(timedHost).tuples.Swap(0)))
		}
		ws.r.layer["engine.shard_skew"] = skew(per)
		ws.r.layer["engine.late_arrivals"] = float64(x.LateArrivals())
	}
	exch := map[int]bool{}
	for _, id := range split.Exchanges {
		exch[id] = true
	}
	var crossed int64
	for _, nl := range ws.exec.Stats() {
		if exch[nl.ID] {
			crossed += nl.OutTuples
		}
	}
	ws.r.layer["engine.exchange_tuples_per_input"] = float64(crossed) / float64(inputs)
	if sg, ok := ws.exec.(interface{ StagingStats() (staging.Stats, bool) }); ok {
		if st, on := sg.StagingStats(); on {
			ws.r.layer["staging.peak_resident_bytes"] = float64(st.ResidentPeakBytes)
			ws.r.layer["staging.spilled_bytes"] = float64(st.SpilledBytes)
		}
	}
	var wire int64
	for _, p := range ws.proxies {
		wire += p.take()
	}
	if ws.clustered {
		ws.r.layer["cluster.wire_bytes_per_tuple"] = float64(wire) / float64(inputs)
	}
}

// skew is the largest share over the mean.
func skew(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	top := 0.0
	for _, x := range xs {
		top = max(top, x)
	}
	return top / m
}

// teardown stops the running executor and the cluster workers.
func (ws *windowSys) teardown() {
	for _, c := range ws.links {
		c.Close()
	}
	for _, w := range ws.workers {
		w.Close()
	}
	ws.serving.Wait()
	for _, p := range ws.proxies {
		p.close()
	}
	ws.links, ws.workers, ws.proxies = nil, nil, nil
}

// timedHost wraps a cluster link so the traced run times every call the
// distributed executor makes into the cluster layer, and counts the data
// tuples pushed to the link for the shard skew.
type timedHost struct {
	engine.RemoteShardHost
	tr     *tracer
	tuples *atomic.Int64
}

func (h timedHost) PushOwned(source string, batch []stream.Tuple) error {
	var n int64
	for _, t := range batch {
		if !t.IsPunct() {
			n++
		}
	}
	h.tuples.Add(n)
	sp := h.tr.within("cluster.push")
	defer sp.end()
	return h.RemoteShardHost.PushOwned(source, batch)
}

func (h timedHost) control(call func() error) error {
	sp := h.tr.within("cluster.control")
	defer sp.end()
	return call()
}

func (h timedHost) Start(spec engine.HostSpec) error {
	return h.control(func() error { return h.RemoteShardHost.Start(spec) })
}

func (h timedHost) Quiesce() error { return h.control(h.RemoteShardHost.Quiesce) }

func (h timedHost) Resume(spec engine.ResumeSpec) error {
	return h.control(func() error { return h.RemoteShardHost.Resume(spec) })
}

func (h timedHost) Stop() error { return h.control(h.RemoteShardHost.Stop) }

func (h timedHost) ExportState() (recs []engine.StateRec, err error) {
	err = h.control(func() error { recs, err = h.RemoteShardHost.ExportState(); return err })
	return recs, err
}

func (h timedHost) Drain() (d *engine.HostDrain, err error) {
	err = h.control(func() error { d, err = h.RemoteShardHost.Drain(); return err })
	return d, err
}

func (h timedHost) Counters() (c *engine.HostCounters, err error) {
	err = h.control(func() error { c, err = h.RemoteShardHost.Counters(); return err })
	return c, err
}

// byteProxy forwards one loopback TCP connection to a worker and counts the
// bytes in both directions: the traced run's view of the cluster wire.
type byteProxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
}

func newByteProxy(target string) (*byteProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &byteProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *byteProxy) addr() string { return p.ln.Addr().String() }

func (p *byteProxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(out, in)
		go p.pipe(in, out)
	}
}

func (p *byteProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
}

// take returns the bytes forwarded since the last take.
func (p *byteProxy) take() int64 { return p.bytes.Swap(0) }

func (p *byteProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
