package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the benchmark contract measures run-to-run spread. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdicts of one (metric, workload) row.
const (
	better     = "better"
	same       = "same"
	worse      = "WORSE"
	unresolved = "unresolved"
	mismatch   = "MISMATCH"
	info       = "-"
)

// judge compares the runs of a metric on the base side (a) and the
// changed side (b). Count-type metrics must match exactly. A bounded
// metric is worse when b's median is worse than a's by more than the
// bound; when the run-to-run spread (the wider interquartile range of
// the two sides) exceeds the bound the row is unresolved, unless every
// run of one side beats every run of the other. Better needs the
// medians to differ by more than the spread and b to win nine tenths
// of all cross pairs. Unbounded (per-layer) metrics are listed for
// explanation only.
func judge(d decl, a, b []float64, comparable bool) string {
	if d.exact {
		if !comparable {
			return info
		}
		for _, v := range slices.Concat(a, b) {
			if v != a[0] {
				return mismatch
			}
		}
		return same
	}
	if d.bound == 0 && !d.abs {
		return info
	}
	sign := 1.0 // worsening = sign × (b − a)
	if d.higher {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worsening := sign * (mb - ma)
	limit := d.bound
	if !d.abs {
		limit *= math.Abs(ma)
	}
	aq1, aq3 := quartiles(a)
	bq1, bq3 := quartiles(b)
	spread := max(aq3-aq1, bq3-bq1)
	if limit == 0 {
		spread = 0 // a metric with no tolerance has none for spread either
	}
	wins, losses := 0, 0
	for _, x := range a {
		for _, y := range b {
			switch diff := sign * (y - x); {
			case diff < 0:
				wins++
			case diff > 0:
				losses++
			}
		}
	}
	pairs := len(a) * len(b)
	switch {
	case spread > limit && wins == pairs:
		return better
	case spread > limit && losses == pairs && worsening > limit:
		return worse
	case spread > limit:
		return unresolved
	case worsening > limit:
		return worse
	case -worsening > spread && wins*10 >= pairs*9:
		return better
	}
	return same
}

// compareFiles prints one row per (metric, workload) present on both
// sides and reports whether any row is worse or mismatched.
func compareFiles(w io.Writer, aFiles, bFiles []string) (bad bool, err error) {
	load := func(files []string) ([]Report, error) {
		var out []Report
		for _, f := range files {
			r, err := readReport(f)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	as, err := load(aFiles)
	if err != nil {
		return false, err
	}
	bs, err := load(bFiles)
	if err != nil {
		return false, err
	}
	// Counts and digests are functions of (seed, size): they compare
	// only between runs of the same inputs.
	comparable := true
	for _, r := range slices.Concat(as, bs) {
		if r.Seed != as[0].Seed || r.Seconds != as[0].Seconds || r.Quick != as[0].Quick {
			comparable = false
		}
	}
	if !comparable {
		fmt.Fprintln(w, "note: the reports differ in seed or size; count-type metrics and digests are not compared")
	}
	// results are one side's results for a workload, one per run.
	results := func(rs []Report, workload string) (out []WorkloadResult) {
		for _, r := range rs {
			for _, wr := range r.Workloads {
				if wr.Name == workload {
					out = append(out, wr)
				}
			}
		}
		return out
	}
	values := func(runs []WorkloadResult, metric string) (vs []float64) {
		for _, wr := range runs {
			if m, ok := wr.metric(metric); ok {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-20s %-38s %14s %14s %9s  %s\n", "workload", "metric", "A median", "B median", "B/A", "verdict (runs A/B, bound)")
	for _, s := range workloads {
		ar, br := results(as, s.name), results(bs, s.name)
		if len(ar) == 0 || len(br) == 0 {
			continue
		}
		if comparable {
			verdict := same
			for _, wr := range slices.Concat(ar, br) {
				if wr.Digest != ar[0].Digest {
					verdict, bad = mismatch, true
				}
			}
			fmt.Fprintf(w, "%-20s %-38s %14s %14s %9s  %s\n", s.name, "trace_digest", ar[0].Digest, br[0].Digest, "", verdict)
		}
		for _, d := range declared() {
			a, b := values(ar, d.name), values(br, d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict := judge(d, a, b, comparable)
			bad = bad || verdict == worse || verdict == mismatch
			ma, mb := median(a), median(b)
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f", mb/ma)
			}
			bound := ""
			switch {
			case d.exact:
				bound = ", exact"
			case d.abs:
				bound = fmt.Sprintf(", ±%g abs", d.bound)
			case d.bound > 0:
				bound = fmt.Sprintf(", %g%%", d.bound*100)
			}
			fmt.Fprintf(w, "%-20s %-38s %14.6g %14.6g %9s  %s (%d/%d%s) %s\n",
				s.name, d.name, ma, mb, ratio, verdict, len(a), len(b), bound, d.unit)
		}
	}
	return bad, nil
}
