package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// values collects one workload's untraced, correct, comparable values of
// a metric.
func values(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace || !r.Result.Correct || !r.Comparable {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles statistics.quantiles(xs, n=4) gives
// (the exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return div(q(3)-q(1), median(s))
}

// verdict classifies b against a for one workload × metric. worse is the
// relative change in the bad direction (negative when b is better).
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	worse = div(mb-ma, ma)
	if !lowerIsBetter {
		worse = -worse
	}
	if sa, sb := spread(a), spread(b); sa > bound || sb > bound {
		// Too noisy to call, unless every run of b is on one side of every
		// run of a.
		minA, maxA := percentile(a, 0), percentile(a, 100)
		minB, maxB := percentile(b, 0), percentile(b, 100)
		bBetter := maxB < minA
		bWorse := minB > maxA
		if !lowerIsBetter {
			bBetter, bWorse = minB > maxA, maxB < minA
		}
		switch {
		case bBetter:
			return worse, "pass"
		case bWorse && worse > bound:
			return worse, "regression"
		}
		return worse, "unresolved"
	}
	if worse > bound {
		return worse, "regression"
	}
	return worse, "pass"
}

// compareFiles reports, per workload × end-to-end metric, both medians,
// the relative difference and pass / regression / unresolved.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	for _, recs := range [][]record{a, b} {
		for _, r := range recs {
			if !r.Comparable || !r.Result.Correct {
				fmt.Fprintf(w, "skipping %s seed %d: comparable=%t correct=%t\n", r.Workload, r.Seed, r.Comparable, r.Result.Correct)
			}
		}
	}
	fmt.Fprintf(w, "%-13s %-20s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "bound", "verdict")
	bad := 0
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, v := verdict(xa, xb, m.Better == "lower", m.Bound)
			if v != "pass" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-20s %12.5g %12.5g %+7.2f%% %6.2f%% %6.2f%% %5.0f%%  %s (n=%d/%d)\n",
				wl.Name, m.Name, median(xa), median(xb), 100*worse, 100*spread(xa), 100*spread(xb), 100*m.Bound, v, len(xa), len(xb))
		}
		da, db := digests(a, wl.Name), digests(b, wl.Name)
		for seed, sha := range da {
			if other, ok := db[seed]; ok && other != sha {
				fmt.Fprintf(w, "%-13s answers_sha256 differ at seed %d: %.12s vs %.12s\n", wl.Name, seed, sha, other)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons did not pass", bad)
	}
	return nil
}

// digests maps each seed a workload ran at to the answers_sha256 it
// printed: at one seed, two sets of runs must agree on the answers.
func digests(recs []record, workload string) map[int64]string {
	out := map[int64]string{}
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			out[r.Seed] = r.AnswersSHA256
		}
	}
	return out
}
