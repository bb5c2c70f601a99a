package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloads, endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload, untraced and traced, at the smoke scale
// and checks the output's shape against BENCHMARK.json: every declared
// metric printed exactly once with its unit, the gates run and pass, and
// the numbers marked not comparable.
func TestSmoke(t *testing.T) {
	workloads, endToEnd, perLayer := declared(t)
	if strings.Join(workloads, " ") != strings.Join(workloadNames, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, workloadNames)
	}
	shas := map[string]string{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			r := &run{workload: name, sc: smoke, seed: 7, seconds: refSeconds, begin: processStart, out: &out}
			want := endToEnd
			if traced {
				r.rec, want = &recorder{}, perLayer
			}
			rec, err := r.execute()
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s", name, traced,
					rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, out.String())
			}
			if rec.Comparable || !strings.Contains(out.String(), "# comparable=false") {
				t.Errorf("%s traced=%t: smoke output is not marked not-comparable", name, traced)
			}
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 4 || f[0] != "metric" {
					continue
				}
				printed[f[1]]++
				if !metricName.MatchString(f[1]) {
					t.Errorf("%s: metric name %q", name, f[1])
				}
				if unit, ok := want[f[1]]; !ok || unit != f[3] {
					t.Errorf("%s traced=%t: printed %s in %q, BENCHMARK.json says %q (declared=%t)", name, traced, f[1], f[3], unit, ok)
				}
			}
			for m := range want {
				if printed[m] != 1 {
					t.Errorf("%s traced=%t: %s printed %d times, want once", name, traced, m, printed[m])
				}
				if _, ok := rec.Result.Metrics[m]; !ok {
					t.Errorf("%s traced=%t: %s missing from the result object", name, traced, m)
				}
			}
			if len(rec.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%t: result has %d metrics, BENCHMARK.json declares %d", name, traced, len(rec.Result.Metrics), len(want))
			}
			if !traced {
				shas[name] = rec.AnswersSHA256
			}
		}
	}
	if shas[adhocSim] == "" || shas[adhocSim] != shas[adhocReplay] || shas[adhocSim] != shas[serveWarm] {
		t.Errorf("static workloads disagree on the NL answers: %v", shas)
	}
}
