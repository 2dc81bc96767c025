package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/stream"
)

// Each check is fed a result the program could have produced, then a
// corrupted copy of it, and must accept the first and reject the second.

func testQuotes(seed int64, n int) []quote {
	return genQuotes(rand.New(rand.NewSource(seed)), n)
}

func digestOf(rs []windowResult) digest {
	var d digest
	for _, r := range rs {
		d.add(windowFingerprint(r.ts, r.key, r.val))
	}
	return d
}

func TestWindowDigestRejectsCorruptResults(t *testing.T) {
	in := testQuotes(1, 4096)
	for _, q := range windowQueries() {
		rs := expectWindow(q, in)
		want := windowDigest(q, in)
		if n := mismatches(digestOf(rs), want); n != 0 {
			t.Fatalf("%s: exact results rejected (%d)", q.id(), n)
		}
		// Reordered results are the same multiset.
		rev := append([]windowResult(nil), rs...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		if n := mismatches(digestOf(rev), want); n != 0 {
			t.Fatalf("%s: reordered results rejected", q.id())
		}
		wrong := append([]windowResult(nil), rs...)
		wrong[len(wrong)/2].val += 0.5
		missing := rs[1:]
		extra := append(append([]windowResult(nil), rs...), rs[0])
		badKey := append([]windowResult(nil), rs...)
		badKey[0].key = "S99"
		badTs := append([]windowResult(nil), rs...)
		badTs[0].ts++
		for name, bad := range map[string][]windowResult{"wrong value": wrong, "missing": missing, "extra": extra, "wrong key": badKey, "wrong ts": badTs} {
			if mismatches(digestOf(bad), want) == 0 {
				t.Errorf("%s: %s result accepted", q.id(), name)
			}
		}
	}
}

// TestWindowOracleMatchesStagedExecutor runs the window plan on the staged
// executor and checks the oracle accepts its output, then corrupts it.
func TestWindowOracleMatchesStagedExecutor(t *testing.T) {
	in := testQuotes(2, 4096)
	queries := windowQueries()
	factory, err := planFactory(queries, stocksOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]stream.Tuple, len(queries))
	taps := map[string]func([]stream.Tuple){}
	done := make(chan struct{})
	results := make(chan [2]any, 1<<16)
	for i, q := range queries {
		taps[q.id()] = func(b []stream.Tuple) {
			for _, tu := range b {
				results <- [2]any{i, tu}
			}
			engine.PutBatch(b)
		}
	}
	go func() {
		for r := range results {
			got[r[0].(int)] = append(got[r[0].(int)], r[1].(stream.Tuple))
		}
		close(done)
	}()
	ex, err := engine.StartStaged(factory, engine.StagedConfig{ExecConfig: engine.ExecConfig{Shards: 2, Buf: 64}, Taps: taps})
	if err != nil {
		t.Fatal(err)
	}
	tuples := toTuples(in)
	for i := 0; i < len(tuples); i += 64 {
		if err := ex.PushBatch("stocks", tuples[i:i+64]); err != nil {
			t.Fatal(err)
		}
	}
	ex.Stop()
	close(results)
	<-done
	for i, q := range queries {
		var d digest
		for _, tu := range got[i] {
			d.add(windowFingerprint(tu.Ts, tu.Vals[0], tu.Vals[1]))
		}
		want := windowDigest(q, in)
		if n := mismatches(d, want); n != 0 {
			t.Errorf("%s: executor output differs from the oracle: got %d results, want %d", q.id(), d.n, want.n)
		}
		if len(got[i]) == 0 {
			continue
		}
		tu := got[i][0]
		d.add(windowFingerprint(tu.Ts, tu.Vals[0], tu.Vals[1]))
		if mismatches(d, want) == 0 {
			t.Errorf("%s: duplicated executor result accepted", q.id())
		}
	}
}

func TestProbeMultisetRejectsCorruptResults(t *testing.T) {
	in := testQuotes(3, 2048)
	q := probeQuery(fanoutProbeMin)
	want := expectProbe(q, in)
	got := map[string]int{}
	var first quote
	for _, tu := range in {
		if q.passes(tu) {
			if len(got) == 0 {
				first = tu
			}
			got[probeKey(tu.ts, tu.symbol, tu.price, tu.volume)]++
		}
	}
	if n := multisetMismatches(got, want); n != 0 {
		t.Fatalf("exact probe results rejected (%d)", n)
	}
	key := probeKey(first.ts, first.symbol, first.price, first.volume)
	dropped := copyCounts(got)
	delete(dropped, key)
	dup := copyCounts(got)
	dup[key]++
	wrong := copyCounts(dropped)
	wrong[probeKey(first.ts, first.symbol, first.price+0.5, first.volume)]++
	for name, bad := range map[string]map[string]int{"dropped": dropped, "duplicated": dup, "wrong price": wrong} {
		if multisetMismatches(bad, want) == 0 {
			t.Errorf("%s probe result accepted", name)
		}
	}
}

func copyCounts(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = v
	}
	return out
}

func TestFilterCountsEvaluatePredicates(t *testing.T) {
	in := []quote{
		{ts: 1, symbol: "S00", price: 100, volume: 10},
		{ts: 2, symbol: "S01", price: 100.5, volume: 5000},
		{ts: 3, symbol: "S02", price: 400, volume: 8000},
	}
	cases := []struct {
		where []cmp
		want  int64
	}{
		{[]cmp{{field: "price", op: ">", num: 100}}, 2},
		{[]cmp{{field: "price", op: "<=", num: 100}}, 1},
		{[]cmp{{field: "volume", op: ">=", num: 5000}}, 2},
		{[]cmp{{field: "symbol", op: "!=", str: "S01"}}, 2},
		{[]cmp{{field: "symbol", op: "!=", str: "S01"}, {field: "price", op: ">", num: 100}}, 1},
	}
	for _, c := range cases {
		q := qspec{tenant: "t", name: "q", where: c.where}
		if got := expectedCount(q, in); got != c.want {
			t.Errorf("%s: %d results, want %d", q.cql(), got, c.want)
		}
	}
}

// auctionFixture is a two-query cycle sharing one operator.
func auctionFixture() (cycleJSON, map[string]queryStatusJSON, []invoiceJSON) {
	c := cycleJSON{
		Period:   3,
		Admitted: []admissionJSON{{ID: "a/q", Payment: 2}, {ID: "b/q", Payment: 0}},
		Metered:  []chargeJSON{{ID: "a/q", Amount: 1}},
	}
	queries := map[string]queryStatusJSON{
		"a/q": {ID: "a/q", Tenant: "a", Bid: 5, Operators: []opJSON{{Key: "f", Load: 20}, {Key: "p", Load: 10}}},
		"b/q": {ID: "b/q", Tenant: "b", Bid: 1, Operators: []opJSON{{Key: "f", Load: 20}}},
	}
	invoices := []invoiceJSON{
		{ID: 7, Query: "a/q", Amount: 2, Kind: "admission"},
		{ID: 8, Query: "b/q", Amount: 0, Kind: "admission"},
		{ID: 9, Query: "a/q", Amount: 1, Kind: "usage"},
	}
	return c, queries, invoices
}

func TestCycleChecksRejectViolations(t *testing.T) {
	c, queries, invoices := auctionFixture()
	// Shared operator f counts once: 20 + 10 = 30 fits a capacity of 30.
	if bad := checkCycle(c, queries, nil, 30, invoices); len(bad) != 0 {
		t.Fatalf("valid cycle rejected: %v", bad)
	}
	if bad := checkCycle(c, queries, map[string]float64{"p": 11}, 30, invoices); len(bad) != 1 || !strings.Contains(bad[0], "capacity") {
		t.Errorf("measured load over capacity accepted: %v", bad)
	}
	over := c
	over.Admitted = append(over.Admitted[:0:0], c.Admitted...)
	over.Admitted[1].Payment = 1.5
	if bad := checkCycle(over, queries, nil, 30, invoices); len(bad) == 0 {
		t.Error("payment above bid accepted")
	}
	neg := c
	neg.Admitted = append(neg.Admitted[:0:0], c.Admitted...)
	neg.Admitted[0].Payment = -1
	if bad := checkCycle(neg, queries, nil, 30, invoices); len(bad) == 0 {
		t.Error("negative payment accepted")
	}
	if bad := checkCycle(c, queries, nil, 30, invoices[:2]); len(bad) == 0 {
		t.Error("missing usage invoice accepted")
	}
	wrongAmount := append([]invoiceJSON(nil), invoices...)
	wrongAmount[0].Amount = 2.5
	if bad := checkCycle(c, queries, nil, 30, wrongAmount); len(bad) == 0 {
		t.Error("invoice differing from the report accepted")
	}
}

func TestSameWinners(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 0}
	if !sameWinners(a, map[string]float64{"x": 1, "y": 0}) {
		t.Error("equal sets rejected")
	}
	if sameWinners(a, map[string]float64{"x": 1}) || sameWinners(a, map[string]float64{"x": 1, "z": 0}) || sameWinners(a, map[string]float64{"x": 1.5, "y": 0}) {
		t.Error("different winners or payments accepted")
	}
}

// TestResultsForRejectedQueriesFail drives a small service plane and then
// pretends one admitted query was rejected: the results it legitimately
// received must now count as failures.
func TestResultsForRejectedQueriesFail(t *testing.T) {
	r := newRun("test", 1, 1, nil)
	h := newHTTPSys(r, fanoutCapacity)
	defer h.close()
	qs := genFanoutQueries(rand.New(rand.NewSource(5)), 1, 4)
	in := newPeriodInput(testQuotes(5, 512), fanoutBatch)
	if err := h.prologue([]string{"t0"}, qs, in); err != nil {
		t.Fatal(err)
	}
	if failedOps(r) != 0 {
		t.Fatalf("clean run failed: %v", r.notes)
	}
	h.pushAll(in)
	var victim string
	for _, q := range qs {
		if in.count(q) > 0 {
			victim = q.id()
			break
		}
	}
	delete(h.admitted, victim)
	c, _, err := h.cycle()
	if err != nil {
		t.Fatal(err)
	}
	h.settle(c)
	if failedOps(r) == 0 {
		t.Fatalf("results delivered to %s while counted as rejected were accepted", victim)
	}
}

func failedOps(r *run) int64 {
	var n int64
	for _, v := range r.failed {
		n += v
	}
	return n
}

// The admission population: its declared and measured loads exceed dsmsd
// serve's default capacity, so cycles reject and evict queries.
const (
	churnTenants  = 8
	churnBatch    = 8
	churnSlice    = 256 // tuples pushed in each period
	churnProbeMin = 100
	churnCapacity = 60
)

var aggs = []string{"SUM", "MAX", "MIN", "AVG", "COUNT"}

// genChurnQueries makes an admission population for
// TestSameSeedSameAdmittedSets: many tenants, a mix of filter/projection and window queries drawn from small
// literal sets so operators are widely shared.
func genChurnQueries(rng *rand.Rand, tenants, perTenant int) []qspec {
	var out []qspec
	for i := 0; i < perTenant; i++ {
		for t := 0; t < tenants; t++ {
			q := qspec{
				tenant: fmt.Sprintf("c%d", t),
				name:   fmt.Sprintf("q%d", i),
				bid:    float64(1 + rng.Intn(30)),
				where:  []cmp{randCmp(rng)},
			}
			switch rng.Intn(3) {
			case 0:
				q.fields = projections[rng.Intn(len(projections))]
			case 1:
				q.agg = aggs[rng.Intn(len(aggs))]
				q.size = 4 * (1 + rng.Intn(4))
				q.group = rng.Intn(2) == 0
			default:
				q.where = append(q.where, randCmp(rng))
			}
			out = append(out, q)
		}
	}
	return out
}

// TestSameSeedSameAdmittedSets runs an over-subscribed admission population
// through several cycles twice on one seed and compares every cycle's
// admitted set.
func TestSameSeedSameAdmittedSets(t *testing.T) {
	admittedSeq := func() []string {
		r := newRun("test", 9, 1, nil)
		h := newHTTPSys(r, churnCapacity)
		defer h.close()
		rng := rand.New(rand.NewSource(9))
		queries := genChurnQueries(rng, churnTenants, 8)
		slice := newPeriodInput(genQuotes(rng, churnSlice), churnBatch)
		tenants := []string{"probe"}
		for i := 0; i < churnTenants; i++ {
			tenants = append(tenants, "c"+string(rune('0'+i)))
		}
		if err := h.prologue(tenants, append([]qspec{probeQuery(churnProbeMin)}, queries[:32]...), slice); err != nil {
			t.Fatal(err)
		}
		var seq []string
		for _, q := range queries[32:] {
			h.submit(q)
			h.pushAll(slice)
			c, _, err := h.cycle()
			if err != nil {
				t.Fatal(err)
			}
			h.settle(c)
			var ids []string
			for _, a := range c.Admitted {
				ids = append(ids, a.ID)
			}
			seq = append(seq, strings.Join(ids, ","))
		}
		if failedOps(r) != 0 {
			t.Fatalf("failed operations: %v", r.notes)
		}
		return seq
	}
	a, b := admittedSeq(), admittedSeq()
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("same seed, different admitted sets:\n%v\n%v", a, b)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
