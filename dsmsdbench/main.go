// Command dsmsdbench is the repository's benchmark of dsmsd: it drives the
// service plane's HTTP handler and the staged and distributed executors
// through three workloads, checks every output against its own computation,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	dsmsdbench --workload fanout-http --seed 1 --seconds 10 --trace 0
//	dsmsdbench steady --runs 10 --seconds 25     (spread over fresh processes)
//	dsmsdbench reference                         (sync engine and direct-push figures)
//	dsmsdbench queries                           (every workload's query texts)
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(r *run) error{
	"fanout-http":     runFanout,
	"window-exchange": func(r *run) error { return runWindows(r, false) },
	"window-cluster":  func(r *run) error { return runWindows(r, true) },
}

var workloadOrder = []string{"fanout-http", "window-exchange", "window-cluster"}

// endToEnd lists the end-to-end metrics every workload reports, with units.
// The open loop's 99th percentile is measured too, but its spread across
// seeds (16-39%) reaches beyond any bound the benchmark may set, so it is
// reported with the per-layer metrics, where no bound applies.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "tuples/s"},
	{"result_p50_ms", "ms"},
	{"cycle_ms", "ms"},
	{"alloc_bytes_per_tuple", "B"},
	{"allocs_per_tuple", "count"},
	{"heap_live_mb", "MiB"},
	{"rss_peak_mb", "MiB"},
}

// perLayer lists the traced run's metrics. A layer that does no work on a
// workload reports 0 for its metrics there.
var perLayer = []metricDef{
	{"server.ingest_ms", "ms"},
	{"server.sse_bytes_per_tuple", "B"},
	{"server.submit_ms", "ms"},
	{"cql.compile_us", "us"},
	{"auction.close_period_ms", "ms"},
	{"cloud.compile_plan_ms", "ms"},
	{"engine.start_ms", "ms"},
	{"engine.stop_ms", "ms"},
	{"engine.push_us_per_batch", "us"},
	{"engine.tap_lag_ms", "ms"},
	{"engine.exchange_tuples_per_input", "ratio"},
	{"engine.shard_skew", "ratio"},
	{"engine.late_arrivals", "count"},
	{"subscription.publish_us_per_batch", "us"},
	{"cluster.push_us_per_batch", "us"},
	{"cluster.wire_bytes_per_tuple", "B"},
	{"cluster.control_ms", "ms"},
	{"staging.peak_resident_bytes", "B"},
	{"staging.spilled_bytes", "B"},
	{"go.gc_cycles_per_mtuple", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"open_loop.result_p99_ms", "ms"},
	{"server.self_ms", "ms"},
	{"cql.self_ms", "ms"},
	{"auction.self_ms", "ms"},
	{"cloud.self_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"subscription.self_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"overhead.setup_s", "s"},
	{"overhead.tuples_per_s", "tuples/s"},
	{"overhead.result_p50_ms", "ms"},
	{"overhead.cycle_ms", "ms"},
	{"overhead.alloc_bytes_per_tuple", "B"},
	{"overhead.allocs_per_tuple", "count"},
	{"overhead.heap_live_mb", "MiB"},
	{"overhead.rss_peak_mb", "MiB"},
}

type metricDef struct{ name, unit string }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run is one benchmark invocation's state: options, operation accounting,
// the end-to-end samples, the per-layer values and the tracer.
type run struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer

	mu        sync.Mutex
	attempted map[string]int64
	failed    map[string]int64
	notes     []string

	setup []float64 // unstolen s, one per fresh instance
	// roundTuples and roundTime sum the closed-loop rounds' tuples and wall
	// time; roundStolen is the machine's CPU time over those rounds.
	roundTuples int64
	roundTime   time.Duration
	roundStolen stolen
	thru        []float64 // tuples/s of each round, for the diagnostics
	// lat holds each open-loop period's result latencies (ms); latP50 and
	// latP99 each period's quantiles, for the diagnostics.
	lat            [][]float64
	latP50, latP99 []float64
	cycles         []float64 // unstolen ms, one per closed-loop period boundary
	late           []float64 // ms, open-loop generator lateness per send
	heapLive       []float64 // MiB live after each closed-loop boundary

	closedTuples int64
	allocBytes   uint64
	allocs       uint64
	gcs          uint32

	// setupSteal, latSteal and roundSteal are the share of the machine's
	// CPU time the hypervisor stole during each set-up, open-loop period and
	// closed-loop round (see stealMark).
	setupSteal, latSteal, roundSteal []float64

	layer map[string]float64
	// admitted, rejected and evicted sum the cycle reports' decisions.
	admitted, rejected, evicted int
}

// Operation kinds, each counted attempted and failed.
const (
	opIngest = "ingest"
	opPush   = "push"
	opSubmit = "submission"
	opCycle  = "cycle"
	opResult = "expected result"
)

func (r *run) attempt(kind string, n int64) {
	r.mu.Lock()
	r.attempted[kind] += n
	r.mu.Unlock()
}

// fail counts n failed operations of a kind and keeps the first few reasons.
func (r *run) fail(kind string, n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	r.failed[kind] += n
	if len(r.notes) < 20 {
		r.notes = append(r.notes, kind+": "+fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts one operation of a kind, failed when err is non-nil.
func (r *run) check(kind string, err error) bool {
	r.attempt(kind, 1)
	if err != nil {
		r.fail(kind, 1, "%v", err)
		return false
	}
	return true
}

// openPeriod is the length of one open-loop period. Each period reports
// its own latency quantiles and the run reports their medians, so a stall
// moves one period's figures, not the run's.
const openPeriod = 250 * time.Millisecond

// openPeriods is the number of open-loop periods: 40% of the run.
func (r *run) openPeriods() int { return max(4, int(r.phase(0.4)/openPeriod)) }

// setups is the number of fresh instances a run sets up; set-up time is
// their median.
const setups = 15

// addSetup records one set-up's unstolen time.
func (r *run) addSetup(d time.Duration, since stealMark) {
	share := since.since().share()
	r.setup = append(r.setup, d.Seconds()*(1-share))
	r.setupSteal = append(r.setupSteal, share)
}

// addRound records one closed-loop round: tuples pushed, the time from the
// first push until the period boundary drained them, and the boundary's
// own wall time (ms).
func (r *run) addRound(tuples int, d time.Duration, boundary float64, since stealMark) {
	st := since.since()
	r.roundTuples += int64(tuples)
	r.roundTime += d
	r.roundStolen.add(st)
	r.thru = append(r.thru, float64(tuples)/d.Seconds())
	r.cycles = append(r.cycles, boundary*(1-st.share()))
	r.roundSteal = append(r.roundSteal, st.share())
}

// readHeap records the heap a closed-loop boundary left: the live heap as
// the program's own collector last marked it. The benchmark forces no
// collection, so the allocated heap at that moment also holds whatever
// garbage the pacer has not yet reached; the live heap does not.
func (r *run) readHeap() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	r.heapLive = append(r.heapLive, float64(s[0].Value.Uint64())/(1<<20))
}

// addLatency records one open-loop period's result latencies (ms).
func (r *run) addLatency(samples []float64, since stealMark) {
	r.latSteal = append(r.latSteal, since.since().share())
	r.lat = append(r.lat, samples)
	r.latP50 = append(r.latP50, quantile(samples, 0.50))
	r.latP99 = append(r.latP99, quantile(samples, 0.99))
}

// quietLatency pools the samples of the quieter open-loop periods (see
// quietHalf): a stolen 10 ms lands on a latency whole, so stolen periods
// are left out rather than scaled. Pooling keeps the 99th percentile of
// many thousand samples rather than a median of per-period percentiles,
// each of which one stall decides.
func (r *run) quietLatency() []float64 {
	var out []float64
	idx, _ := quietHalf(r.latSteal)
	for _, i := range idx {
		out = append(out, r.lat[i]...)
	}
	return out
}

// phase returns the share of the run's measuring time given to one phase.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// closedRounds is the closed-loop phase's number of rounds: perSecond
// rounds per second of --seconds, calibrated so the phase takes about half
// the run on a 2-core machine. A fixed count, not a deadline, keeps a run's
// work independent of its speed, so memory figures compare across runs.
func (r *run) closedRounds(perSecond float64) int {
	return max(3, int(perSecond*r.seconds+0.5))
}

// memWindow measures heap allocation over one closed-loop round.
type memWindow struct{ ms runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.ms)
	return w
}

func (w *memWindow) finish(r *run, tuples int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.allocBytes += now.TotalAlloc - w.ms.TotalAlloc
	r.allocs += now.Mallocs - w.ms.Mallocs
	r.gcs += now.NumGC - w.ms.NumGC
	r.closedTuples += int64(tuples)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of a sample (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues reduces the run's samples to the end-to-end metrics.
func (r *run) endToEndValues() map[string]float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Linux reports maxrss in KiB
	per := func(x uint64) float64 {
		if r.closedTuples == 0 {
			return 0
		}
		return float64(x) / float64(r.closedTuples)
	}
	quiet := r.quietLatency()
	thru := 0.0
	if r.roundTime > 0 {
		thru = float64(r.roundTuples) / (r.roundTime.Seconds() * (1 - r.roundStolen.share()))
	}
	return map[string]float64{
		"setup_s":               median(r.setup),
		"tuples_per_s":          thru,
		"result_p50_ms":         quantile(quiet, 0.50),
		"result_p99_ms":         quantile(quiet, 0.99),
		"cycle_ms":              median(r.cycles),
		"rss_peak_mb":           float64(ru.Maxrss) / 1024,
		"alloc_bytes_per_tuple": per(r.allocBytes),
		"allocs_per_tuple":      per(r.allocs),
		"heap_live_mb":          mean(r.heapLive),
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(runSteady(os.Args[2:]))
		case "reference":
			os.Exit(runReference())
		case "queries":
			printQueries()
			return
		}
	}
	fs := flag.NewFlagSet("dsmsdbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	_ = fs.Parse(os.Args[1:])
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "dsmsdbench: unknown workload %q or bad --seconds (workloads: %s)\n", *workload, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *trace == 1 {
		os.Exit(runTraced(*workload, *seed, *seconds, drive))
	}
	r := newRun(*workload, *seed, *seconds, nil)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsdbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	os.Exit(r.report(r.endToEndValues(), endToEnd))
}

func newRun(workload string, seed int64, seconds float64, tr *tracer) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, tr: tr,
		attempted: map[string]int64{}, failed: map[string]int64{},
		layer: map[string]float64{},
	}
}

// report prints the operation table and the metrics, then the JSON result
// line; it returns the exit code (non-zero on any failed operation).
func (r *run) report(values map[string]float64, defs []metricDef) int {
	out := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	kinds := []string{opIngest, opPush, opSubmit, opCycle, opResult}
	n, fewest := 0, 0
	for i, s := range r.lat {
		n += len(s)
		if i == 0 || len(s) < fewest {
			fewest = len(s)
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d open-loop samples in %d periods (fewest %d), %d closed-loop rounds, %d setups\n",
		r.workload, r.seed, n, len(r.lat), fewest, len(r.thru), len(r.setup))
	fmt.Fprintf(os.Stderr, "  open-loop sends late ms: p50 %.3f p90 %.3f p99 %.3f max %.3f\n", quantile(r.late, .5), quantile(r.late, .9), quantile(r.late, .99), quantile(r.late, 1))
	_, rule := quietHalf(r.latSteal)
	fmt.Fprintf(os.Stderr, "  stolen CPU share: set-ups median %.3f, closed loop overall %.3f (times scaled by the unstolen share); open-loop periods median %.3f (latency from %s)\n",
		median(r.setupSteal), r.roundStolen.share(), median(r.latSteal), rule)
	fmt.Fprintf(os.Stderr, "  unstolen set-up s %s\n  open-loop p50 ms %s\n  open-loop p99 ms %s\n  closed-loop rounds tuples/s (wall) q1 %.0f median %.0f q3 %.0f\n  unstolen boundary ms q1 %.3f median %.3f q3 %.3f\n",
		fmtSamples(r.setup), fmtSamples(r.latP50), fmtSamples(r.latP99),
		quantile(r.thru, 0.25), quantile(r.thru, 0.5), quantile(r.thru, 0.75),
		quantile(r.cycles, 0.25), quantile(r.cycles, 0.5), quantile(r.cycles, 0.75))
	fmt.Fprintf(os.Stderr, "  live heap MiB after boundaries: first %.1f median %.1f last %.1f\n", quantile(r.heapLive, 0), median(r.heapLive), quantile(r.heapLive, 1))
	if r.admitted+r.rejected+r.evicted > 0 {
		fmt.Fprintf(os.Stderr, "  auctions: %d admissions, %d rejections, %d evictions\n", r.admitted, r.rejected, r.evicted)
	}
	for _, k := range kinds {
		fmt.Fprintf(os.Stderr, "  %-16s attempted %9d  failed %d\n", k, r.attempted[k], r.failed[k])
		out.Attempted += r.attempted[k]
		out.Failed += r.failed[k]
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  FAILED", n)
	}
	if _, ok := values["result_p99_ms"]; ok {
		fmt.Fprintf(os.Stderr, "  (result_p99_ms %.4f ms is reported only by the traced run)\n", values["result_p99_ms"])
	}
	for _, d := range defs {
		v := values[d.name]
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	if out.Attempted == 0 {
		out.Correct = false
		fmt.Fprintln(os.Stderr, "dsmsdbench: no operation was attempted")
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmsdbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

// stealMark is a reading of the machine's CPU time counters: all jiffies
// and those the hypervisor stole from this guest (/proc/stat). On a shared
// host the stolen share swings from 0 to above 40% within seconds, and a
// period's wall time moves with it: in one window-exchange run, closed-loop
// rounds ran at a median 633k tuples/s over spans with nothing stolen and
// 320k over spans with more than 30% stolen. The set-up, boundary and
// throughput metrics therefore count only the unstolen share of their wall
// time, wall × (1 − stolen share), which is the wall time itself where
// nothing is stolen or /proc/stat cannot be read.
type stealMark struct{ total, steal int64 }

func markSteal() stealMark {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var m stealMark
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		m.total += v
		if i == 8 { // user nice system idle iowait irq softirq steal
			m.steal = v
		}
	}
	return m
}

// stolen is the machine's CPU time over a span, in jiffies.
type stolen struct{ total, steal int64 }

// since returns the CPU time counted since the mark; zero where the
// counters are unavailable.
func (m stealMark) since() stolen {
	now := markSteal()
	if m.total == 0 || now.total <= m.total {
		return stolen{}
	}
	return stolen{total: now.total - m.total, steal: now.steal - m.steal}
}

func (s *stolen) add(o stolen) { s.total += o.total; s.steal += o.steal }

// share is the stolen share of the span's CPU time; 0 when none was counted.
func (s stolen) share() float64 {
	if s.total <= 0 {
		return 0
	}
	return float64(s.steal) / float64(s.total)
}

// quietHalf returns the indices of the samples taken while the hypervisor
// stole the least CPU time: the half with the smallest stolen shares, plus
// every sample that ties with the largest of them, so run order never
// chooses. When the shares are all equal (no steal, or /proc/stat
// unreadable) it returns every sample. rule names which applied.
func quietHalf(steal []float64) (idx []int, rule string) {
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	if len(s) == 0 || s[0] == s[len(s)-1] {
		for i := range steal {
			idx = append(idx, i)
		}
		return idx, "all"
	}
	cut := s[(len(s)+1)/2-1]
	for i, x := range steal {
		if x <= cut {
			idx = append(idx, i)
		}
	}
	return idx, "quieter half"
}
