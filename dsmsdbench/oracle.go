package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// The benchmark's own computation of what the program must output. Nothing
// here calls into the program: filter predicates, count windows and the
// auction's properties are evaluated from the generated inputs alone.

// digest is an order-independent summary of a result multiset: the count
// and the wrapping sum of per-result fingerprints. Two multisets with equal
// digests are equal with overwhelming probability.
type digest struct {
	n   int64
	sum uint64
}

func (d *digest) add(h uint64) { d.n++; d.sum += h }

// mismatches counts the expected results a received digest fails: the
// count difference, or at least one when the counts agree but the contents
// do not.
func mismatches(got, want digest) int64 {
	d := got.n - want.n
	if d < 0 {
		d = -d
	}
	if d == 0 && got.sum != want.sum {
		d = 1
	}
	return d
}

func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// valueHash fingerprints one result value; unexpected kinds hash apart from
// every expected one.
func valueHash(v any) uint64 {
	switch x := v.(type) {
	case string:
		return strHash(x)
	case int64:
		return mix(uint64(x) ^ 0x1)
	case float64:
		return mix(math.Float64bits(x) ^ 0x2)
	default:
		return strHash(fmt.Sprintf("%T:%v", v, v))
	}
}

// windowFingerprint fingerprints one window result (ts, key, aggregate).
func windowFingerprint(ts int64, key, val any) uint64 {
	return mix(mix(mix(uint64(ts))^valueHash(key)) ^ valueHash(val))
}

// windowResult is one expected window emission.
type windowResult struct {
	ts    int64
	key   any // the symbol for grouped windows, int64(0) otherwise
	val   float64
	flush bool // emitted by the period's end, not by an arrival
}

// expectWindow computes a count window's emissions over one period's
// timestamp-ordered input, including the partial windows the period's end
// flushes, in the order a single instance would emit them.
func expectWindow(q qspec, in []quote) []windowResult {
	type group struct {
		buf []float64
		ts  int64
	}
	slide := q.slide
	if slide == 0 {
		slide = q.size
	}
	groups := map[any]*group{}
	var order []any
	var out []windowResult
	for _, t := range in {
		if !q.passes(t) {
			continue
		}
		key := any(int64(0))
		if q.group {
			key = t.symbol
		}
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		v := 1.0
		if q.agg != "COUNT" {
			v = t.price
		}
		g.buf = append(g.buf, v)
		g.ts = t.ts
		if len(g.buf) == q.size {
			out = append(out, windowResult{ts: t.ts, key: key, val: aggregate(q.agg, g.buf)})
			g.buf = append(g.buf[:0], g.buf[slide:]...)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := groups[order[i]], groups[order[j]]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return fmt.Sprint(order[i]) < fmt.Sprint(order[j])
	})
	for _, key := range order {
		if g := groups[key]; len(g.buf) > 0 {
			out = append(out, windowResult{ts: g.ts, key: key, val: aggregate(q.agg, g.buf), flush: true})
		}
	}
	return out
}

// midRunCount is how many of a window query's results must arrive before
// the period ends: every emission an arrival triggered, except those at the
// period's last timestamp, which a global stage may hold until Stop (source
// punctuation promises only one below a batch's highest timestamp).
func midRunCount(q qspec, in []quote) int64 {
	last := in[len(in)-1].ts
	var n int64
	for _, r := range expectWindow(q, in) {
		if !r.flush && r.ts < last {
			n++
		}
	}
	return n
}

// aggregate reduces a window. Prices are multiples of 0.5, so the plain sum
// is exact and equals any compensated or reordered sum.
func aggregate(agg string, buf []float64) float64 {
	var sum float64
	for _, v := range buf {
		sum += v
	}
	switch agg {
	case "SUM":
		return sum
	case "AVG":
		return sum / float64(len(buf))
	case "COUNT":
		return float64(len(buf))
	case "MIN":
		m := math.Inf(1)
		for _, v := range buf {
			m = math.Min(m, v)
		}
		return m
	case "MAX":
		m := math.Inf(-1)
		for _, v := range buf {
			m = math.Max(m, v)
		}
		return m
	}
	return math.NaN()
}

// windowDigest is the digest of a window query's expected emissions.
func windowDigest(q qspec, in []quote) digest {
	var d digest
	for _, r := range expectWindow(q, in) {
		d.add(windowFingerprint(r.ts, r.key, r.val))
	}
	return d
}

// expectedCount is the number of results a query emits over one period:
// passing tuples for filter/projection queries, emissions (flushes
// included) for window queries.
func expectedCount(q qspec, in []quote) int64 {
	if q.agg != "" {
		return int64(len(expectWindow(q, in)))
	}
	var n int64
	for _, t := range in {
		if q.passes(t) {
			n++
		}
	}
	return n
}

// probeKey renders a (ts, symbol, price, volume) result the same way for
// expected quotes and for tuples decoded from SSE events.
func probeKey(ts int64, symbol string, price float64, volume int64) string {
	return strconv.FormatInt(ts, 10) + "|" + symbol + "|" + strconv.FormatFloat(price, 'f', -1, 64) + "|" + strconv.FormatInt(volume, 10)
}

// expectProbe is the exact multiset of probe results for one period.
func expectProbe(q qspec, in []quote) map[string]int {
	out := map[string]int{}
	for _, t := range in {
		if q.passes(t) {
			out[probeKey(t.ts, t.symbol, t.price, t.volume)]++
		}
	}
	return out
}

// multisetMismatches counts missing plus extra elements.
func multisetMismatches(got, want map[string]int) int64 {
	var n int64
	for k, w := range want {
		if g := got[k]; g != w {
			n += int64(absInt(g - w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			n += int64(g)
		}
	}
	return n
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Wire forms of the service plane's responses that the auction checks read.
type cycleJSON struct {
	Period   int             `json:"period"`
	Admitted []admissionJSON `json:"admitted"`
	Rejected []string        `json:"rejected"`
	Evicted  []string        `json:"evicted"`
	Metered  []chargeJSON    `json:"metered"`
}

type admissionJSON struct {
	ID      string  `json:"id"`
	Payment float64 `json:"payment"`
}

type chargeJSON struct {
	ID     string  `json:"id"`
	Amount float64 `json:"amount"`
}

type opJSON struct {
	Key  string  `json:"key"`
	Load float64 `json:"load"`
}

type queryStatusJSON struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	Bid       float64  `json:"bid"`
	Status    string   `json:"status"`
	Results   int64    `json:"results"`
	Operators []opJSON `json:"operators"`
}

type invoiceJSON struct {
	ID     int     `json:"ID"`
	Period int     `json:"Period"`
	User   int     `json:"User"`
	Query  string  `json:"Query"`
	Amount float64 `json:"Amount"`
	Kind   string  `json:"Kind"`
}

// repriced is an operator's load as the auction charges it: the measured
// value when the last period measured one, the declared value otherwise.
func repriced(op opJSON, measured map[string]float64) float64 {
	if m, ok := measured[op.Key]; ok && m > 0 {
		return m
	}
	return op.Load
}

const eps = 1e-9

// checkCycle checks one admission cycle's report against the auction's
// properties: the admitted queries' load (shared operators counted once)
// fits the capacity, every payment lies in [0, bid], and the invoices the
// cycle added to the ledger are exactly the report's payments and metered
// charges. It returns one line per violation.
func checkCycle(c cycleJSON, queries map[string]queryStatusJSON, measured map[string]float64, capacity float64, newInvoices []invoiceJSON) []string {
	var bad []string
	ops := map[string]float64{}
	for _, a := range c.Admitted {
		q, ok := queries[a.ID]
		if !ok {
			bad = append(bad, fmt.Sprintf("admitted query %s is not registered", a.ID))
			continue
		}
		for _, op := range q.Operators {
			ops[op.Key] = repriced(op, measured)
		}
		if a.Payment < -eps || a.Payment > q.Bid+eps {
			bad = append(bad, fmt.Sprintf("%s pays %g outside [0, bid %g]", a.ID, a.Payment, q.Bid))
		}
	}
	var load float64
	for _, l := range ops {
		load += l
	}
	if load > capacity*(1+eps) {
		bad = append(bad, fmt.Sprintf("admitted load %g exceeds capacity %g", load, capacity))
	}
	want := map[string]int{}
	for _, a := range c.Admitted {
		want[invoiceKey("admission", a.ID, a.Payment)]++
	}
	for _, m := range c.Metered {
		want[invoiceKey("usage", m.ID, m.Amount)]++
	}
	got := map[string]int{}
	for _, inv := range newInvoices {
		got[invoiceKey(inv.Kind, inv.Query, inv.Amount)]++
	}
	if n := multisetMismatches(got, want); n > 0 {
		bad = append(bad, fmt.Sprintf("cycle %d: %d ledger invoices differ from the cycle report", c.Period, n))
	}
	return bad
}

func invoiceKey(kind, query string, amount float64) string {
	return kind + "|" + query + "|" + strconv.FormatFloat(amount, 'g', 12, 64)
}

// sameWinners compares two admitted sets with their payments.
func sameWinners(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, p := range a {
		q, ok := b[id]
		if !ok || math.Abs(p-q) > eps*math.Max(1, math.Abs(p)) {
			return false
		}
	}
	return true
}
