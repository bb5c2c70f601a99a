package unify

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"unify/internal/workload"
)

// openCluster builds the golden-capture configuration at the given
// cluster width: sports at size 300, trained importance function, strict
// invariant checks, default cache.
func openCluster(t *testing.T, machines int) *System {
	t.Helper()
	sys, err := New(
		WithDataset("sports"),
		WithSize(300),
		WithTrainSCE(),
		WithStrictChecks(),
		WithMachines(machines),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runClusterWorkload answers the first six seed workload queries
// sequentially, returning one answer line per query in the golden
// format (id, text, exec vtime, llm calls).
func runClusterWorkload(t *testing.T, sys *System) []string {
	t.Helper()
	queries := workload.Generate(sys.Dataset, 1, 1)[:6]
	lines := make([]string, len(queries))
	scattered := 0
	for i, q := range queries {
		ans, err := sys.Query(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		lines[i] = fmt.Sprintf("%s\t%s\t%s\t%d", q.ID, ans.Text, ans.ExecDur, ans.LLMCalls)
		for _, node := range ans.Plan.Nodes {
			if _, ok := node.Args["_scatter"]; ok {
				scattered++
				break
			}
		}
	}
	if sys.Config.Machines > 1 && scattered == 0 {
		t.Fatalf("no query scattered on a %d-machine cluster", sys.Config.Machines)
	}
	return lines
}

// TestClusterM1MatchesSeedGolden pins the 1-machine cluster path to the
// goldens captured from the pre-cluster single-pool code: answers,
// schedules (exec vtime, call counts), and the full Prometheus
// exposition must all be byte-identical. This is the scale-out work's
// "M=1 changes nothing" regression bar.
func TestClusterM1MatchesSeedGolden(t *testing.T) {
	sys := openCluster(t, 1)
	got := strings.Join(runClusterWorkload(t, sys), "\n") + "\n"

	want, err := os.ReadFile("testdata/seed_m1_answers.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("answers diverged from seed golden:\ngot:\n%s\nwant:\n%s", got, want)
	}

	var buf bytes.Buffer
	sys.Metrics.Reg.WritePrometheus(&buf)
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile("testdata/seed_m1_metrics.prom", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantProm, err := os.ReadFile("testdata/seed_m1_metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(wantProm) {
		t.Errorf("prometheus exposition diverged from seed golden:\ngot:\n%s\nwant:\n%s", buf.String(), wantProm)
	}
}

// TestClusterWidthsAgreeAndReplay asserts the scatter-correctness
// contract end to end: a 4-machine cluster answers the workload with
// byte-identical texts to the 1-machine run (schedules differ — that is
// the speedup — but answers may not), at least one query actually
// scatters, and a repeated 4-machine run is byte-identical down to its
// schedules.
func TestClusterWidthsAgreeAndReplay(t *testing.T) {
	m1 := runClusterWorkload(t, openCluster(t, 1))

	sysA := openCluster(t, 4)
	m4a := runClusterWorkload(t, sysA)
	m4b := runClusterWorkload(t, openCluster(t, 4))

	for i := range m1 {
		baseText := strings.SplitN(m1[i], "\t", 3)[1]
		wideText := strings.SplitN(m4a[i], "\t", 3)[1]
		if baseText != wideText {
			t.Errorf("query %d answer diverged across widths: m1=%q m4=%q", i, baseText, wideText)
		}
		if m4a[i] != m4b[i] {
			t.Errorf("repeated 4-machine run diverged at query %d:\n%s\n%s", i, m4a[i], m4b[i])
		}
	}

	if sysA.Sharding == nil || sysA.Sharding.N != 4 {
		t.Fatalf("4-machine system sharding: %+v", sysA.Sharding)
	}
	if ps := sysA.Pool.Stats(); ps.Machines != 4 || len(ps.PerMachine) != 4 {
		t.Fatalf("4-machine pool stats: machines=%d per_machine=%d", ps.Machines, len(ps.PerMachine))
	}
}
