package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The benchmark's inputs: every tuple, query text, bid and request body is
// generated here from the run's seed before any clock starts, so the same
// seed always yields the same inputs and the program sees only the
// generated values.

// numSymbols is the size of the stocks key space. Symbols appear in blocks,
// each block a seeded permutation of all symbols, so every period whose
// length is a multiple of numSymbols gives every symbol the same count.
const numSymbols = 16

var symbols = func() []string {
	out := make([]string, numSymbols)
	for i := range out {
		out[i] = fmt.Sprintf("S%02d", i)
	}
	return out
}()

// quote is one generated stocks tuple: (symbol, price, volume) at Ts.
// Prices are multiples of 0.5 in [1, 500], so every window sum is exact in
// float64 whatever the order of addition.
type quote struct {
	ts     int64
	symbol string
	price  float64
	volume int64
}

// genQuotes makes n quotes with timestamps 1..n: one period's input.
func genQuotes(rng *rand.Rand, n int) []quote {
	out := make([]quote, n)
	perm := rng.Perm(numSymbols)
	for i := range out {
		if i%numSymbols == 0 {
			perm = rng.Perm(numSymbols)
		}
		out[i] = quote{
			ts:     int64(i + 1),
			symbol: symbols[perm[i%numSymbols]],
			price:  0.5 * float64(2+rng.Intn(999)),
			volume: int64(1 + rng.Intn(10000)),
		}
	}
	return out
}

// cmp is one comparison predicate of a generated query, kept structured so
// the benchmark evaluates it itself rather than through the program.
type cmp struct {
	field string // symbol, price or volume
	op    string // = != < <= > >=
	num   float64
	str   string
}

func (c cmp) cql() string {
	if c.field == "symbol" {
		return fmt.Sprintf("%s %s '%s'", c.field, c.op, c.str)
	}
	return fmt.Sprintf("%s %s %s", c.field, c.op, strconv.FormatFloat(c.num, 'f', -1, 64))
}

// holds evaluates the predicate on a quote.
func (c cmp) holds(q quote) bool {
	if c.field == "symbol" {
		switch c.op {
		case "=":
			return q.symbol == c.str
		case "!=":
			return q.symbol != c.str
		}
		return false
	}
	v := q.price
	if c.field == "volume" {
		v = float64(q.volume)
	}
	switch c.op {
	case "=":
		return v == c.num
	case "!=":
		return v != c.num
	case "<":
		return v < c.num
	case "<=":
		return v <= c.num
	case ">":
		return v > c.num
	case ">=":
		return v >= c.num
	}
	return false
}

// qspec is one generated continuous query on stocks: a conjunctive filter
// followed by a projection, or by a count window aggregate.
type qspec struct {
	tenant string
	name   string
	bid    float64
	where  []cmp
	fields []string // projection; nil means SELECT * (or an aggregate)
	agg    string   // "" for filter/projection queries
	size   int      // window length in tuples
	slide  int      // 0 means tumbling
	group  bool     // GROUP BY symbol
}

func (q qspec) id() string { return q.tenant + "/" + q.name }

func (q qspec) cql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case q.agg != "":
		field := "price"
		if q.agg == "COUNT" {
			field = "*"
		}
		fmt.Fprintf(&b, "%s(%s)", q.agg, field)
	case len(q.fields) > 0:
		b.WriteString(strings.Join(q.fields, ", "))
	default:
		b.WriteString("*")
	}
	b.WriteString(" FROM stocks")
	for i, c := range q.where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(c.cql())
	}
	if q.agg != "" {
		fmt.Fprintf(&b, " WINDOW %d", q.size)
		if q.slide > 0 {
			fmt.Fprintf(&b, " SLIDE %d", q.slide)
		}
		if q.group {
			b.WriteString(" GROUP BY symbol")
		}
	}
	return b.String()
}

// passes reports whether a quote satisfies the query's whole conjunction.
func (q qspec) passes(t quote) bool {
	for _, c := range q.where {
		if !c.holds(t) {
			return false
		}
	}
	return true
}

// randCmp draws a predicate from small literal sets, so that queries of
// different tenants often share the same canonical filter operator.
func randCmp(rng *rand.Rand) cmp {
	switch rng.Intn(4) {
	case 0:
		return cmp{field: "price", op: ">", num: float64(50 * (1 + rng.Intn(9)))}
	case 1:
		return cmp{field: "price", op: "<=", num: float64(50 * (1 + rng.Intn(9)))}
	case 2:
		return cmp{field: "volume", op: ">=", num: float64(2000 * (1 + rng.Intn(4)))}
	default:
		return cmp{field: "symbol", op: "!=", str: symbols[rng.Intn(numSymbols)]}
	}
}

var projections = [][]string{nil, {"symbol", "price"}, {"price", "volume"}, {"symbol", "volume"}}

// genFanoutQueries makes the tenant plane's filter/projection queries:
// perTenant queries for each of tenants tenants.
func genFanoutQueries(rng *rand.Rand, tenants, perTenant int) []qspec {
	var out []qspec
	for t := 0; t < tenants; t++ {
		for i := 0; i < perTenant; i++ {
			q := qspec{
				tenant: fmt.Sprintf("t%d", t),
				name:   fmt.Sprintf("f%d", i),
				bid:    float64(1 + rng.Intn(20)),
				fields: projections[rng.Intn(len(projections))],
			}
			q.where = []cmp{randCmp(rng)}
			if rng.Intn(3) == 0 {
				q.where = append(q.where, randCmp(rng))
			}
			out = append(out, q)
		}
	}
	return out
}

// probeQuery is the query whose results are read over SSE in the open-loop
// phase of fanout-http: bid high and declared cheap, so the auction
// always admits it.
func probeQuery(minPrice float64) qspec {
	return qspec{
		tenant: "probe", name: "p", bid: 1000,
		where:  []cmp{{field: "price", op: ">=", num: minPrice}},
		fields: []string{"symbol", "price", "volume"},
	}
}

// windowQueries is the fixed window plan of the engine-direct workloads:
// grouped windows run in the parallel stage, ungrouped ones run in the
// global stage behind an exchange merge (their filter keeps the source
// partitioned by symbol). Tumbling window lengths divide every period's
// per-symbol count, so the unfiltered tumbling grouped windows leave nothing
// for Stop to flush; the others may, and the oracle computes those flushes
// too.
func windowQueries() []qspec {
	w := func(name, agg string, size, slide int, group bool, where ...cmp) qspec {
		return qspec{tenant: "w", name: name, bid: 1, agg: agg, size: size, slide: slide, group: group, where: where}
	}
	return []qspec{
		w("g-sum8", "SUM", 8, 0, true),
		w("g-max16s4", "MAX", 16, 4, true),
		w("g-count32", "COUNT", 32, 0, true),
		w("g-avg10-p100", "AVG", 10, 0, true, cmp{field: "price", op: ">", num: 100}),
		w("g-min8-v5000", "MIN", 8, 0, true, cmp{field: "volume", op: ">=", num: 5000}),
		w("x-sum64-p50", "SUM", 64, 0, false, cmp{field: "price", op: ">", num: 50}),
		w("x-count100s50", "COUNT", 100, 50, false, cmp{field: "symbol", op: "!=", str: "S00"}),
		w("x-max50-p400", "MAX", 50, 0, false, cmp{field: "price", op: "<=", num: 400}),
	}
}

// ingestBody renders quotes as one POST /v1/streams/stocks request body.
func ingestBody(qs []quote) []byte {
	var b strings.Builder
	b.WriteString(`{"tuples":[`)
	for i, q := range qs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"ts":%d,"vals":[%q,%s,%d]}`, q.ts, q.symbol, strconv.FormatFloat(q.price, 'f', -1, 64), q.volume)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// splitBodies cuts a period's quotes into request bodies of batch tuples.
func splitBodies(qs []quote, batch int) [][]byte {
	var out [][]byte
	for i := 0; i < len(qs); i += batch {
		out = append(out, ingestBody(qs[i:min(i+batch, len(qs))]))
	}
	return out
}

// printQueries lists every workload's query texts.
func printQueries() {
	show := func(workload string, qs []qspec) {
		for _, q := range qs {
			fmt.Printf("%s\t%s\tbid %g\t%s\n", workload, q.id(), q.bid, q.cql())
		}
	}
	show("fanout-http", append([]qspec{probeQuery(fanoutProbeMin)}, genFanoutQueries(rand.New(rand.NewSource(querySeed)), fanoutTenants, fanoutPerTenant)...))
	show("window-exchange", windowQueries())
}
