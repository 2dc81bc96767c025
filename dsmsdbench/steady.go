package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// The steadiness check's seed sets: seeds 1 to --runs, then the same count
// starting at 1001.
const (
	steadySeed    = 1
	steadySetStep = 1000
)

// runSteady runs each workload --runs times in fresh processes, on two
// sets of seeds, and prints per metric each set's median, quartiles and
// spread (the interquartile distance over the median, with quartiles as
// Python's statistics.quantiles(values, n=4) gives them), the largest
// relative distance between two runs, and how far the second set's median
// moved from the first's in the metric's worse direction.
func runSteady(args []string) int {
	fs := flag.NewFlagSet("dsmsdbench steady", flag.ExitOnError)
	runs := fs.Int("runs", 5, "runs per workload and seed set")
	seconds := fs.Float64("seconds", 10, "measuring time of each run")
	_ = fs.Parse(args)
	code := 0
	for _, w := range workloadOrder {
		var medians []map[string]float64
		for set := 0; set < 2; set++ {
			vals := map[string][]float64{}
			var attempted, failed int64
			for i := 0; i < *runs; i++ {
				seed := steadySeed + int64(set)*steadySetStep + int64(i)
				res, err := runChild(w, seed, *seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
					code = 1
					continue
				}
				attempted += res.Attempted
				failed += res.Failed
				for k, m := range res.Metrics {
					vals[k] = append(vals[k], m.Value)
				}
			}
			fmt.Printf("%s set %d: %d runs, failed %d of %d operations\n", w, set+1, *runs, failed, attempted)
			fmt.Printf("  %-24s %14s %14s %14s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "range")
			med := map[string]float64{}
			for _, d := range endToEnd {
				xs := vals[d.name]
				if len(xs) < 2 {
					continue
				}
				q1, m, q3 := quartiles(xs)
				med[d.name] = m
				lo, hi := minMax(xs)
				fmt.Printf("  %-24s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%\n", d.name, q1, m, q3, 100*(q3-q1)/m, 100*(hi-lo)/m)
			}
			medians = append(medians, med)
		}
		fmt.Printf("%s: second set's median against the first's (positive is worse)\n", w)
		for _, d := range endToEnd {
			a, b := medians[0][d.name], medians[1][d.name]
			if a == 0 {
				continue
			}
			worse := (b - a) / a
			if d.name == "tuples_per_s" {
				worse = -worse
			}
			fmt.Printf("  %-24s %+7.1f%%\n", d.name, 100*worse)
		}
	}
	return code
}

// quartiles follows Python's statistics.quantiles(data, n=4), whose
// default method is "exclusive".
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
