package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/auction"
	"repro/internal/cloud"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/subscription"
)

// The HTTP workload drives the service plane's handler over loopback TCP,
// in dsmsd serve's default configuration (CAT, staged executor with
// GOMAXPROCS shards, heartbeat every batch, staging off, row layout). The
// load comes from one ingest connection and, in the open-loop phase, one
// SSE connection. A period ends with POST /v1/admission/run.

const (
	fanoutTenants   = 4
	fanoutPerTenant = 12
	fanoutBatch     = 64   // tuples per POST /v1/streams request
	fanoutPeriod    = 8192 // closed-loop tuples per period
	fanoutWarmup    = 8192
	fanoutRate      = 8000 // open-loop tuples/s
	fanoutProbeMin  = 100  // probe: price >= 100, about 80% of tuples
	// fanoutCapacity keeps every query admitted: this workload measures the
	// tenant plane, not the auction.
	fanoutCapacity = 1e6

	// querySeed fixes the query populations: a workload is one traffic mix,
	// and --seed varies the stream data it runs over.
	querySeed = 12
)

// periodInput is one period's tuples, pre-rendered as request bodies, with
// the per-query expected result counts cached as the checks need them.
type periodInput struct {
	quotes []quote
	bodies [][]byte
	counts map[string]int64
}

func newPeriodInput(qs []quote, batch int) *periodInput {
	return &periodInput{quotes: qs, bodies: splitBodies(qs, batch), counts: map[string]int64{}}
}

func (p *periodInput) count(q qspec) int64 {
	if p == nil {
		return 0
	}
	n, ok := p.counts[q.id()]
	if !ok {
		n = expectedCount(q, p.quotes)
		p.counts[q.id()] = n
	}
	return n
}

type httpSys struct {
	r        *run
	capacity float64
	srv      *server.Server
	hs       *http.Server
	served   sync.WaitGroup
	base     string
	client   *http.Client

	users    map[string]int
	order    []qspec
	admitted map[string]bool  // deployed by the last cycle
	results  map[string]int64 // results counters at the last check
	invoices int
	running  *periodInput // input pushed since the last cycle
	// checking is the time spent in settle's checks, which set-up excludes.
	checking time.Duration
}

func newHTTPSys(r *run, capacity float64) *httpSys {
	return &httpSys{r: r, capacity: capacity, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}}
}

// open starts a fresh service plane on a loopback listener.
func (h *httpSys) open() error {
	mech, err := auction.ByName("CAT", 7)
	if err != nil {
		return err
	}
	h.srv, err = server.New(server.Config{
		Mechanism:  mech,
		Capacity:   h.capacity,
		MeterPrice: 0.1,
		Exec:       engine.ExecConfig{Buf: 64},
		Catalog: cql.Catalog{
			"stocks": {Schema: market.QuoteSchema, Rate: 1},
			"news":   {Schema: market.NewsSchema, Rate: 0.2},
		},
		Backlog: 1024,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Close()
		return err
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: h.srv.Handler()}
	h.served.Add(1)
	go func() {
		defer h.served.Done()
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	h.users = map[string]int{}
	h.order = nil
	h.admitted = map[string]bool{}
	h.results = map[string]int64{}
	h.invoices = 0
	h.running = nil
	return nil
}

func (h *httpSys) close() {
	if h.hs == nil {
		return
	}
	h.hs.Close()
	h.served.Wait()
	h.srv.Close()
	h.client.CloseIdleConnections()
	h.hs = nil
}

// call makes one request and reads the whole response, inside a span of
// the given name unless it is empty.
func (h *httpSys) call(method, path string, body []byte, spanName string) (int, []byte, error) {
	if spanName != "" {
		sp := h.r.tr.drive(spanName)
		defer sp.end()
	}
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON reads a GET endpoint into v. The checks' reads are neither
// operations nor spans: they are not part of the workload.
func (h *httpSys) getJSON(path string, v any) error {
	code, body, err := h.call("GET", path, nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

func statusErr(code, want int, body []byte) error {
	if code == want {
		return nil
	}
	return fmt.Errorf("status %d: %s", code, strings.TrimSpace(string(body)))
}

func (h *httpSys) register(tenant string) error {
	code, body, err := h.call("POST", "/v1/tenants", []byte(fmt.Sprintf(`{"name":%q}`, tenant)), "server.register")
	if err == nil && code != http.StatusCreated {
		err = statusErr(code, http.StatusCreated, body)
	}
	if err != nil {
		return err
	}
	var resp struct {
		User int `json:"user"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	h.users[tenant] = resp.User
	return nil
}

func (h *httpSys) submit(q qspec) {
	req, _ := json.Marshal(map[string]any{"tenant": q.tenant, "name": q.name, "cql": q.cql(), "bid": q.bid}) // plain values always marshal
	code, body, err := h.call("POST", "/v1/queries", req, "server.submit")
	if err == nil {
		err = statusErr(code, http.StatusCreated, body)
	}
	if h.r.check(opSubmit, err) {
		h.order = append(h.order, q)
	}
}

// pushAll posts a period's bodies closed loop, one request at a time.
func (h *httpSys) pushAll(in *periodInput) {
	for _, b := range in.bodies {
		h.ingest(b)
	}
	h.running = in
}

func (h *httpSys) ingest(body []byte) {
	code, resp, err := h.call("POST", "/v1/streams/stocks", body, "server.ingest")
	if err == nil {
		err = statusErr(code, http.StatusOK, resp)
	}
	h.r.check(opIngest, err)
}

// cycle runs one admission cycle and returns its report and wall time.
func (h *httpSys) cycle() (cycleJSON, time.Duration, error) {
	t0 := time.Now()
	code, body, err := h.call("POST", "/v1/admission/run", nil, "server.cycle")
	d := time.Since(t0)
	var c cycleJSON
	if err == nil {
		err = statusErr(code, http.StatusOK, body)
	}
	if err == nil {
		err = json.Unmarshal(body, &c)
	}
	h.r.check(opCycle, err)
	return c, d, err
}

// checkStats reads the running executor's loss counters: shed tuples, late
// arrivals at the exchange merges, and tuples staging lost.
func (h *httpSys) checkStats() {
	var st struct {
		Nodes []struct {
			Name       string `json:"name"`
			ShedTuples int64  `json:"shed_tuples"`
		} `json:"nodes"`
		LateArrivals int64 `json:"late_arrivals"`
		Staging      struct {
			LostTuples int64 `json:"lost_tuples"`
		} `json:"staging"`
	}
	if err := h.getJSON("/v1/stats", &st); err != nil {
		h.r.fail(opResult, 1, "reading stats: %v", err)
		return
	}
	for _, n := range st.Nodes {
		h.r.fail(opResult, n.ShedTuples, "%s shed %d tuples", n.Name, n.ShedTuples)
	}
	h.r.fail(opResult, st.LateArrivals, "%d late arrivals", st.LateArrivals)
	h.r.fail(opResult, st.Staging.LostTuples, "staging lost %d tuples", st.Staging.LostTuples)
}

// settle checks a finished cycle: each query's results over the period it
// closed against the oracle (admitted queries get exactly their expected
// results, rejected and evicted ones none), the auction's properties and
// ledger, and the replayed auction's winners against the served ones.
func (h *httpSys) settle(c cycleJSON) {
	t0 := time.Now()
	defer func() { h.checking += time.Since(t0) }()
	h.r.admitted += len(c.Admitted)
	h.r.rejected += len(c.Rejected)
	h.r.evicted += len(c.Evicted)
	var qs struct {
		Queries []queryStatusJSON `json:"queries"`
	}
	var prices struct {
		Measured map[string]float64 `json:"measured_loads"`
	}
	var inv struct {
		Invoices []invoiceJSON `json:"invoices"`
	}
	for path, v := range map[string]any{"/v1/queries": &qs, "/v1/prices": &prices, "/v1/invoices": &inv} {
		if err := h.getJSON(path, v); err != nil {
			h.r.fail(opCycle, 1, "reading %s: %v", path, err)
			return
		}
	}
	byID := map[string]queryStatusJSON{}
	for _, q := range qs.Queries {
		byID[q.ID] = q
	}
	for _, q := range h.order {
		st, ok := byID[q.id()]
		if !ok {
			h.r.fail(opResult, 1, "%s missing from the query list", q.id())
			continue
		}
		var want int64
		if h.admitted[q.id()] {
			want = h.running.count(q)
		}
		got := st.Results - h.results[q.id()]
		h.results[q.id()] = st.Results
		h.r.attempt(opResult, want)
		if got != want {
			h.r.fail(opResult, max(got-want, want-got), "%s (admitted %v): %d results in period %d, want %d", q.id(), h.admitted[q.id()], got, c.Period-1, want)
		}
	}
	newInv := inv.Invoices[min(h.invoices, len(inv.Invoices)):]
	h.invoices = len(inv.Invoices)
	for _, bad := range checkCycle(c, byID, prices.Measured, h.capacity, newInv) {
		h.r.fail(opCycle, 1, "%s", bad)
	}
	served := map[string]float64{}
	for _, a := range c.Admitted {
		served[a.ID] = a.Payment
	}
	if replayed, err := h.replayAuction(qs.Queries, prices.Measured); err != nil {
		h.r.fail(opCycle, 1, "replaying cycle %d: %v", c.Period, err)
	} else if !sameWinners(served, replayed) {
		h.r.fail(opCycle, 1, "cycle %d: replayed auction admits %d queries, the server %d", c.Period, len(replayed), len(served))
	}
	h.admitted = map[string]bool{}
	for id := range served {
		h.admitted[id] = true
	}
	h.running = nil
	if h.r.tr != nil {
		h.replayDeploy()
	}
}

// replayAuction reruns the cycle's auction on a fresh cloud.Center from
// what the API exposes: every registered query at its bid, its operators
// repriced with the loads the cycle measured.
func (h *httpSys) replayAuction(queries []queryStatusJSON, measured map[string]float64) (map[string]float64, error) {
	sp := h.r.tr.drive("auction.close_period")
	defer sp.end()
	mech, err := auction.ByName("CAT", 7)
	if err != nil {
		return nil, err
	}
	center := cloud.New(mech, h.capacity)
	for _, q := range queries {
		ops := make([]cloud.OperatorSpec, len(q.Operators))
		for i, op := range q.Operators {
			ops[i] = cloud.OperatorSpec{Key: op.Key, Load: repriced(op, measured)}
		}
		if err := center.Submit(cloud.Submission{User: h.users[q.Tenant], Tenant: q.Tenant, Name: q.ID, Bid: q.Bid, Operators: ops}); err != nil {
			return nil, err
		}
	}
	out, err := center.ClosePeriod()
	if err != nil {
		return nil, err
	}
	won := map[string]float64{}
	for _, a := range out.Admitted {
		won[a.Name] = a.Payment
	}
	return won, nil
}

// replayDeploy times the deploy half of the cycle from the benchmark's
// side: each winner's CQL through cql, the winners through
// cloud.CompilePlan, and a staged executor started and stopped on the plan.
func (h *httpSys) replayDeploy() {
	var winners []qspec
	for _, q := range h.order {
		if h.admitted[q.id()] {
			winners = append(winners, q)
		}
	}
	if len(winners) == 0 {
		return
	}
	factory, err := planFactory(winners, servedSources, h.r.tr)
	if err != nil {
		h.r.fail(opCycle, 1, "replay compile: %v", err)
		return
	}
	sp := h.r.tr.drive("engine.start")
	exec, err := engine.StartStaged(factory, engine.StagedConfig{ExecConfig: engine.ExecConfig{Buf: 64}})
	sp.end()
	if err != nil {
		h.r.fail(opCycle, 1, "replay start: %v", err)
		return
	}
	sp = h.r.tr.drive("engine.stop")
	exec.Stop()
	sp.end()
}

// sseProbe reads one query's SSE result stream, timing each result against
// the scheduled send of the request that carried it.
type sseProbe struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	got     map[string]int
	n       int
	bytes   int64
	lat     []float64
	batches [][]stream.Tuple
	err     error
}

// openProbe subscribes to a query's results. The handler replays the
// query's retained backlog as the first event; skipFirst drops it.
func (h *httpSys) openProbe(q qspec, skipFirst bool, base time.Time, interval time.Duration, batch int) (*sseProbe, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", h.base+"/v1/queries/"+q.tenant+"/"+q.name+"/results", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	if err != nil {
		cancel()
		return nil, err
	}
	p := &sseProbe{cancel: cancel, done: make(chan struct{}), got: map[string]int{}}
	go func() {
		defer close(p.done)
		defer resp.Body.Close()
		rd := bufio.NewReader(resp.Body)
		first := true
		for {
			line, err := rd.ReadBytes('\n')
			arrived := time.Now()
			p.mu.Lock()
			p.bytes += int64(len(line))
			p.mu.Unlock()
			if err != nil {
				return // the stream ends when the probe is cancelled
			}
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			if first && skipFirst {
				first = false
				continue
			}
			first = false
			p.event(data, arrived, base, interval, batch)
		}
	}()
	return p, nil
}

func (p *sseProbe) event(data []byte, arrived, base time.Time, interval time.Duration, batch int) {
	var tuples []struct {
		Ts   int64 `json:"ts"`
		Vals []any `json:"vals"`
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := json.Unmarshal(data, &tuples); err != nil {
		p.err = err
		return
	}
	at := arrived.Sub(base)
	var out []stream.Tuple
	for _, t := range tuples {
		if len(t.Vals) != 3 {
			t.Vals = []any{fmt.Sprint(t.Vals), 0.0, 0.0}
		}
		sym, _ := t.Vals[0].(string)
		price, _ := t.Vals[1].(float64)
		vol, _ := t.Vals[2].(float64)
		p.got[probeKey(t.Ts, sym, price, int64(vol))]++
		p.n++
		k := (t.Ts - 1) / int64(batch)
		p.lat = append(p.lat, ms(at-time.Duration(k)*interval))
		out = append(out, stream.NewTuple(t.Ts, sym, price, int64(vol)))
	}
	p.batches = append(p.batches, out)
}

func (p *sseProbe) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *sseProbe) close() {
	p.cancel()
	<-p.done
}

// runOpen pushes one period on a fixed schedule with the probe subscribed,
// waits for every expected probe result, and ends the period with a cycle.
func (h *httpSys) runOpen(in *periodInput, probe qspec, rate float64, batch int) {
	since := markSteal()
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	want := expectProbe(probe, in.quotes)
	total := 0
	for _, n := range want {
		total += n
	}
	base := time.Now().Add(20 * time.Millisecond)
	p, err := h.openProbe(probe, h.results[probe.id()] > 0, base, interval, batch)
	if err != nil {
		h.r.fail(opResult, int64(total), "probe: %v", err)
		return
	}
	for k, body := range in.bodies {
		due := base.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		h.r.late = append(h.r.late, ms(time.Since(due)))
		h.ingest(body)
	}
	h.running = in
	h.checkStats()
	for deadline := time.Now().Add(10 * time.Second); p.count() < total && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	p.close()
	h.r.attempt(opResult, int64(total))
	if n := multisetMismatches(p.got, want); n > 0 || p.err != nil {
		h.r.fail(opResult, max(n, 1), "probe: %d results differ from the %d expected (decode error %v)", n, total, p.err)
	}
	h.r.addLatency(p.lat, since)
	if p.n > 0 {
		h.r.layer["server.sse_bytes_per_tuple"] = float64(p.bytes) / float64(p.n)
	}
	if h.r.tr != nil {
		replayPublish(h.r.tr, p.batches)
	}
	if c, _, err := h.cycle(); err == nil {
		h.settle(c)
	}
}

// replayPublish times subscription.Hub.Publish on the probe's batches, with
// one subscriber draining, as the service plane's hub runs them.
func replayPublish(tr *tracer, batches [][]stream.Tuple) {
	hub := subscription.NewHub(1024)
	sub := hub.Subscribe("probe/p", 32)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C() {
		}
	}()
	for _, b := range batches {
		sp := tr.drive("subscription.publish")
		hub.Publish("probe/p", b)
		sp.end()
	}
	hub.Close()
	<-drained
}

// awaitProbe waits until the probe query's results for the period pushed
// have all arrived, so that the cycle timed next settles an executor with
// nothing left in flight, as on the engine-direct workloads. Every query
// hangs off the same shards, so the probe completing means the others have
// all but done. The polls are neither operations nor spans; a missing
// result shows in settle, and the wait gives up after a bound.
func (h *httpSys) awaitProbe(probe qspec, in *periodInput) {
	want := h.results[probe.id()] + in.count(probe)
	path := "/v1/queries/" + probe.tenant + "/" + probe.name
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		var st queryStatusJSON
		if err := h.getJSON(path, &st); err != nil || st.Results >= want {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// closedPeriod pushes one period closed loop and ends it with a cycle,
// counting the heap allocations of both, and returns the time from the
// first push until the cycle returned and the cycle's own wall time; ok is
// false when the cycle failed.
func (h *httpSys) closedPeriod(in *periodInput, probe qspec) (d time.Duration, cycle float64, ok bool) {
	// One allocation window from the first push until the cycle returns, so
	// what the executor allocates while it works through its buffered
	// batches counts wherever it lands. checkStats' one GET is negligible
	// next to a period's requests.
	mem := startMem()
	t0 := time.Now()
	h.pushAll(in)
	h.awaitProbe(probe, in)
	push := time.Since(t0)
	h.checkStats()
	c, cd, err := h.cycle()
	h.r.readHeap()
	mem.finish(h.r, len(in.quotes))
	if err != nil {
		return 0, 0, false
	}
	h.settle(c)
	return push + cd, ms(cd), true
}

// prologue registers the tenants and the initial queries, admits them, and
// runs the warm-up period to its settling cycle.
func (h *httpSys) prologue(tenants []string, initial []qspec, warm *periodInput) error {
	if err := h.open(); err != nil {
		return err
	}
	for _, t := range tenants {
		if err := h.register(t); err != nil {
			return fmt.Errorf("registering %s: %w", t, err)
		}
	}
	for _, q := range initial {
		h.submit(q)
	}
	c, _, err := h.cycle()
	if err != nil {
		return err
	}
	h.settle(c)
	h.pushAll(warm)
	c, _, err = h.cycle()
	if err != nil {
		return err
	}
	h.settle(c)
	return nil
}

// timedPrologue runs setups prologues on fresh servers, recording each
// one's wall time as a set-up sample, and leaves the last server running.
func (h *httpSys) timedPrologue(tenants []string, initial []qspec, warm *periodInput) error {
	for i := 0; i < setups; i++ {
		h.close()
		t0, checked, since := time.Now(), h.checking, markSteal()
		if err := h.prologue(tenants, initial, warm); err != nil {
			return err
		}
		// settle's checks ran inside; they are not set-up work.
		h.r.addSetup(time.Since(t0)-(h.checking-checked), since)
	}
	return nil
}

func runFanout(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	queries := genFanoutQueries(rand.New(rand.NewSource(querySeed)), fanoutTenants, fanoutPerTenant)
	probe := probeQuery(fanoutProbeMin)
	warm := newPeriodInput(genQuotes(rng, fanoutWarmup), fanoutBatch)
	closed := newPeriodInput(genQuotes(rng, fanoutPeriod), fanoutBatch)
	nOpen := int(fanoutRate*openPeriod.Seconds()) / fanoutBatch * fanoutBatch
	open := newPeriodInput(genQuotes(rng, max(nOpen, fanoutBatch)), fanoutBatch)
	tenants := []string{"probe"}
	for t := 0; t < fanoutTenants; t++ {
		tenants = append(tenants, fmt.Sprintf("t%d", t))
	}

	h := newHTTPSys(r, fanoutCapacity)
	defer h.close()
	if err := h.timedPrologue(tenants, append([]qspec{probe}, queries...), warm); err != nil {
		return err
	}
	for i := r.openPeriods(); i > 0; i-- {
		h.runOpen(open, probe, fanoutRate, fanoutBatch)
	}
	for round := r.closedRounds(2.2); round > 0; round-- {
		since := markSteal()
		if d, cycle, ok := h.closedPeriod(closed, probe); ok {
			r.addRound(len(closed.quotes), d, cycle, since)
		}
	}
	return nil
}
