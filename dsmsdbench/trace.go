package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records spans from the benchmark's own code around each call into
// a layer's public functions. Spans stay in memory and are written out when
// the run ends. A nil *tracer records nothing, which is how the untraced
// runs keep their timings free of it.

// span is one recorded interval. Start and End are nanoseconds since the
// run began; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    int64  `json:"run"`
}

type tracer struct {
	base time.Time
	run  int64
	next atomic.Int64
	// cur is the span the load-driving goroutine has open. Calls made from
	// inside the program on that goroutine (the cluster link wrapper) take
	// it as their parent.
	cur atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(run int64) *tracer { return &tracer{base: time.Now(), run: run} }

// openSpan is a span being timed.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	prev   int64
	name   string
	start  int64
	loads  bool
}

// begin opens a span. A load span is opened on the load-driving goroutine
// and becomes the parent of spans begun beneath it; other spans take the
// open load span as parent when child is set, or are roots.
func (t *tracer) begin(name string, loads, child bool) openSpan {
	if t == nil {
		return openSpan{}
	}
	s := openSpan{t: t, id: t.next.Add(1), name: name, loads: loads, start: int64(time.Since(t.base))}
	if loads || child {
		s.parent = t.cur.Load()
	}
	if loads {
		s.prev = s.parent
		t.cur.Store(s.id)
	}
	return s
}

// drive opens a span on the load-driving goroutine.
func (t *tracer) drive(name string) openSpan { return t.begin(name, true, false) }

// within opens a span for a call the program makes on the driving
// goroutine, beneath the open load span.
func (t *tracer) within(name string) openSpan { return t.begin(name, false, true) }

// root opens a span on any goroutine, with no parent.
func (t *tracer) root(name string) openSpan { return t.begin(name, false, false) }

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	rec := span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: int64(time.Since(s.t.base)), Run: s.t.run}
	if s.loads {
		s.t.cur.Store(s.prev)
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// durations returns the durations of the spans with a name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// selfTimes sums each layer's self time in ms: a span's duration minus the
// part its child spans cover. The layer is the span name's first element.
func (t *tracer) selfTimes() map[string]float64 {
	covered := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := max(0, s.End-s.Start-covered[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spansDir is where the traced run writes its span file, relative to the
// root of the checkout, beside run.sh's build products.
const spansDir = ".bench_build/spans"

// runTraced runs the workload twice over half the measuring time each: once
// untraced in a fresh process, once traced here. It prints the per-layer
// metrics from the traced half and the tracing overhead as the traced minus
// the untraced end-to-end figures.
func runTraced(workload string, seed int64, seconds float64, drive func(*run) error) int {
	half := seconds / 2
	untraced, err := runChild(workload, seed, half)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmsdbench: untraced half: %v\n", err)
		return 1
	}
	tr := newTracer(seed)
	r := newRun(workload, seed, half, tr)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsdbench: %s: %v\n", workload, err)
		return 1
	}
	if untraced.Failed > 0 {
		r.fail(opResult, untraced.Failed, "untraced half failed %d operations", untraced.Failed)
	}
	values := map[string]float64{}
	for k, v := range r.layer {
		values[k] = v
	}
	p50 := func(name string, unit time.Duration) float64 { return median(tr.durations(name, unit)) }
	avg := func(name string, unit time.Duration) float64 { return mean(tr.durations(name, unit)) }
	values["server.ingest_ms"] = p50("server.ingest", time.Millisecond)
	values["server.submit_ms"] = p50("server.submit", time.Millisecond)
	values["cql.compile_us"] = avg("cql.compile", time.Microsecond)
	values["auction.close_period_ms"] = p50("auction.close_period", time.Millisecond)
	values["cloud.compile_plan_ms"] = p50("cloud.compile_plan", time.Millisecond)
	values["engine.start_ms"] = p50("engine.start", time.Millisecond)
	values["engine.stop_ms"] = p50("engine.stop", time.Millisecond)
	values["engine.push_us_per_batch"] = avg("engine.push", time.Microsecond)
	values["subscription.publish_us_per_batch"] = avg("subscription.publish", time.Microsecond)
	values["cluster.push_us_per_batch"] = avg("cluster.push", time.Microsecond)
	values["cluster.control_ms"] = avg("cluster.control", time.Millisecond)
	if r.closedTuples > 0 {
		values["go.gc_cycles_per_mtuple"] = float64(r.gcs) / float64(r.closedTuples) * 1e6
	}
	values["loadgen.late_ms_p99"] = quantile(r.late, 0.99)
	self := tr.selfTimes()
	for _, layer := range []string{"server", "cql", "auction", "cloud", "engine", "subscription", "cluster"} {
		values[layer+".self_ms"] = self[layer]
	}
	traced := r.endToEndValues()
	values["open_loop.result_p99_ms"] = traced["result_p99_ms"]
	for _, d := range endToEnd {
		if m, ok := untraced.Metrics[d.name]; ok {
			values["overhead."+d.name] = traced[d.name] - m.Value
		}
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsdbench: writing spans: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), path)
	return r.report(values, perLayer)
}

// runChild runs one untraced invocation of this binary and parses its
// result line. Its diagnostics pass through to standard error.
func runChild(workload string, seed int64, seconds float64) (*resultOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res, perr := lastResult(stdout.Bytes())
	if perr != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, perr
	}
	return res, nil
}

// lastResult parses the JSON object on the last non-empty line.
func lastResult(out []byte) (*resultOut, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %v", err)
	}
	return &res, nil
}
