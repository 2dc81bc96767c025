package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/stream"
)

// runReference prints the README's reference figures: the window-exchange
// plan and closed-loop input on the single-threaded sync engine.Engine, and
// the fanout-http plan and input pushed straight into the staged executor,
// to set beside the HTTP path's throughput. Both check their outputs
// against the oracle.
func runReference() int {
	const seed, rounds = 1, 20 // input seed, periods per figure
	code := 0

	rng := rand.New(rand.NewSource(seed))
	_ = genQuotes(rng, windowWarmup)
	in := genQuotes(rng, windowPeriod)
	queries := windowQueries()
	factory, err := planFactory(queries, stocksOnly, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reference:", err)
		return 1
	}
	var thru []float64
	for i := 0; i < rounds; i++ {
		plan, err := factory()
		if err != nil {
			fmt.Fprintln(os.Stderr, "reference:", err)
			return 1
		}
		eng, err := engine.New(plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reference:", err)
			return 1
		}
		tuples := toTuples(in)
		t0 := time.Now()
		for j := 0; j < len(tuples); j += windowBatch {
			if err := eng.PushBatch("stocks", tuples[j:min(j+windowBatch, len(tuples))]); err != nil {
				fmt.Fprintln(os.Stderr, "reference:", err)
				return 1
			}
		}
		eng.Stop()
		thru = append(thru, float64(len(tuples))/time.Since(t0).Seconds())
		for _, q := range queries {
			var d digest
			for _, t := range eng.Results(q.id()) {
				d.add(windowFingerprint(t.Ts, t.Vals[0], t.Vals[1]))
			}
			if n := mismatches(d, windowDigest(q, in)); n > 0 {
				fmt.Fprintf(os.Stderr, "reference: sync engine %s: %d results differ from the oracle\n", q.id(), n)
				code = 1
			}
		}
	}
	fmt.Printf("window-exchange plan, sync engine.Engine: median %.0f tuples/s over %d periods of %d tuples\n", median(thru), len(thru), len(in))

	rng = rand.New(rand.NewSource(seed))
	_ = genQuotes(rng, fanoutWarmup)
	in = genQuotes(rng, fanoutPeriod)
	queries = append([]qspec{probeQuery(fanoutProbeMin)}, genFanoutQueries(rand.New(rand.NewSource(querySeed)), fanoutTenants, fanoutPerTenant)...)
	counts := make([]atomic.Int64, len(queries))
	taps := map[string]func([]stream.Tuple){}
	for i, q := range queries {
		taps[q.id()] = func(b []stream.Tuple) {
			counts[i].Add(int64(len(b))) // a parallel sink's tap runs on every shard
			engine.PutBatch(b)
		}
	}
	factory, err = planFactory(queries, stocksOnly, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reference:", err)
		return 1
	}
	thru = thru[:0]
	for i := 0; i < rounds; i++ {
		for j := range counts {
			counts[j].Store(0)
		}
		ex, err := engine.StartStaged(factory, engine.StagedConfig{ExecConfig: engine.ExecConfig{Buf: 64}, Taps: taps})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reference:", err)
			return 1
		}
		tuples := toTuples(in)
		t0 := time.Now()
		for j := 0; j < len(tuples); j += fanoutBatch {
			part := tuples[j:min(j+fanoutBatch, len(tuples))]
			if err := ex.PushOwnedBatch("stocks", append(engine.GetBatch(len(part)), part...)); err != nil {
				fmt.Fprintln(os.Stderr, "reference:", err)
				return 1
			}
		}
		ex.Stop()
		thru = append(thru, float64(len(tuples))/time.Since(t0).Seconds())
		for j, q := range queries {
			if want := expectedCount(q, in); counts[j].Load() != want {
				fmt.Fprintf(os.Stderr, "reference: staged %s: %d results, want %d\n", q.id(), counts[j].Load(), want)
				code = 1
			}
		}
	}
	fmt.Printf("fanout-http plan, staged executor pushed directly: median %.0f tuples/s over %d periods of %d tuples\n", median(thru), len(thru), len(in))
	return code
}

// stocksOnly declares the one stream the engine-direct workloads read;
// servedSources are the service plane's declarations, in its (sorted) order.
var (
	stocksOnly    = []cloud.SourceDecl{{Name: "stocks", Schema: market.QuoteSchema}}
	servedSources = []cloud.SourceDecl{{Name: "news", Schema: market.NewsSchema}, {Name: "stocks", Schema: market.QuoteSchema}}
)

// planFactory compiles queries through cql, each inside a cql.compile span,
// and returns a plan factory over cloud.CompilePlan whose calls are
// cloud.compile_plan spans beneath the caller's open span.
func planFactory(queries []qspec, sources []cloud.SourceDecl, tr *tracer) (func() (*engine.Plan, error), error) {
	catalog := cql.Catalog{}
	for _, s := range sources {
		catalog[s.Name] = cql.Source{Schema: s.Schema, Rate: 1}
	}
	var winners []cloud.Submission
	for _, q := range queries {
		sp := tr.drive("cql.compile")
		comp, err := compileQuery(q, catalog)
		sp.end()
		if err != nil {
			return nil, err
		}
		winners = append(winners, cloud.Submission{User: 1, Tenant: q.tenant, Name: q.id(), Bid: q.bid, Operators: comp.Operators, Deploy: comp.Deploy})
	}
	return func() (*engine.Plan, error) {
		sp := tr.within("cloud.compile_plan")
		defer sp.end()
		return cloud.CompilePlan(sources, winners)
	}, nil
}

func compileQuery(q qspec, catalog cql.Catalog) (*cql.Compiled, error) {
	parsed, err := cql.Parse(q.cql())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.id(), err)
	}
	comp, err := cql.Compile(parsed, catalog, cql.DefaultCosts())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.id(), err)
	}
	return comp, nil
}
