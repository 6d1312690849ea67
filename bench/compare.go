package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts -compare gives one workload × end-to-end metric.
const (
	verdictRegressed  = "REGRESSED"           // B is worse than A by more than the bound
	verdictUnresolved = "unresolved"          // the two sides' trial ranges overlap
	verdictWorse      = "worse, within bound" // ranges apart, B worse, inside the bound
	verdictBetter     = "better"              // ranges apart, B better
)

// worseBy is the share of A's median by which B's is worse (negative when B
// is better), taking the metric's direction into account.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareMetric judges B against A.  A difference counts only once the two
// sides' trial ranges are apart: overlapping ranges are reported as
// unresolved, not as unchanged — unless B is already past the bound.
func compareMetric(def metricDef, a, b e2eValue) string {
	w := worseBy(def, a.Median, b.Median)
	switch {
	case w > def.Bound:
		return verdictRegressed
	case a.Min <= b.Max && b.Min <= a.Max:
		return verdictUnresolved
	case w > 0:
		return verdictWorse
	}
	return verdictBetter
}

// compareReports prints, per workload × end-to-end metric, both medians, the
// ratio with its base, the bound and the verdict, and reports whether B must
// be rejected: a metric past its bound, a higher failed_frac, or more lost
// acknowledged writes.
func compareReports(w io.Writer, a, b *runReport) bool {
	reject := false
	fmt.Fprintf(w, "A: commit %s seed %d, %s, GOMAXPROCS %d\n", a.Host.GitCommit, a.Seed, a.Host.CPUModel, a.Host.GOMAXPROCS)
	fmt.Fprintf(w, "B: commit %s seed %d, %s, GOMAXPROCS %d\n", b.Host.GitCommit, b.Seed, b.Host.CPUModel, b.Host.GOMAXPROCS)
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%s: missing from B\n", wa.Name)
			reject = true
			continue
		}
		fmt.Fprintf(w, "%s\n", wa.Name)
		for _, def := range endToEnd {
			va, vb := wa.E2E[def.Name], wb.E2E[def.Name]
			v := compareMetric(def, va, vb)
			reject = reject || v == verdictRegressed
			fmt.Fprintf(w, "  %-20s A %14.4f  B %14.4f %-5s B/A %.4f (A = %.4f)  bound %g%%  %s\n",
				def.Name, va.Median, vb.Median, def.Unit, ratio(vb.Median, va.Median), va.Median, 100*def.Bound, v)
		}
		if wb.FailedFrac > wa.FailedFrac {
			fmt.Fprintf(w, "  failed_frac rose: A %g, B %g  %s\n", wa.FailedFrac, wb.FailedFrac, verdictRegressed)
			reject = true
		}
		if wb.LostAcked > wa.LostAcked {
			fmt.Fprintf(w, "  lost_acked_writes rose: A %d, B %d  %s\n", wa.LostAcked, wb.LostAcked, verdictRegressed)
			reject = true
		}
	}
	return reject
}

func readReport(path string) (*runReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	return compareReports(w, a, b), nil
}
