package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// readReports loads the untraced reports of an -out file, grouped by
// workload: one value of each end-to-end metric per run.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20) // a traced report carries the ladder and every per-layer metric
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rep.Traced || rep.Workload == "" {
			continue
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.EndToEnd {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule Python's statistics.quantiles(xs, n=4) uses (exclusive method),
// so the spread agrees with what the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Verdicts of one (workload, metric) comparison.
const (
	vBetter     = "better"
	vWithin     = "within bound"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// verdict applies the benchmark's rule. A new median worse than the old by
// more than the bound (as a share of the old) is a regression; one better
// by more than the spread between the old side's own runs is better;
// anything between is within bound. Where either side's own spread is
// wider than the bound the pair is unresolved, unless every new run reads
// better than every old run.
func verdict(d metricDef, old, new []float64) string {
	om := median(old)
	worsening := ratio(median(new)-om, om)
	allBetter := slices.Min(new) > slices.Max(old)
	if d.Better == "lower" {
		allBetter = slices.Max(new) < slices.Min(old)
	} else {
		worsening = -worsening
	}
	if max(spread(old), spread(new)) > d.Bound && !allBetter {
		return vUnresolved
	}
	switch {
	case worsening > d.Bound:
		return vWorse
	case -worsening > spread(old):
		return vBetter
	default:
		return vWithin
	}
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, their ratio and its base, the bound and the verdict.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readReports(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReports(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\told median (runs, spread)\tnew median (runs, spread)\tnew/old\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := old[wl.Name][d.Name], cur[wl.Name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.6g (%d, %.1f%%)\t%.6g (%d, %.1f%%)\t%.4f of %.6g\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit, d.Better, om, len(o), 100*spread(o), nm, len(n), 100*spread(n),
				ratio(nm, om), om, 100*d.Bound, verdict(d, o, n))
		}
	}
	return tw.Flush()
}
