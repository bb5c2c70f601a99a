package main

import (
	"math"
	"testing"
)

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 90, 110, 75, 125, 100, 100}
	for _, tc := range []struct {
		name          string
		a, b          []float64
		lowerIsBetter bool
		want          string
	}{
		{"same", steady, steady, true, "pass"},
		{"latency up 20%", steady, scale(steady, 1.2), true, "regression"},
		{"latency down 20%", steady, scale(steady, 0.8), true, "pass"},
		{"throughput down 20%", steady, scale(steady, 0.8), false, "regression"},
		{"within the bound", steady, scale(steady, 1.05), true, "pass"},
		{"too noisy to call", noisy, scale(noisy, 1.05), true, "unresolved"},
		{"noisy, but every run better", noisy, scale(noisy, 0.4), true, "pass"},
		{"noisy, and every run worse", noisy, scale(noisy, 2.5), true, "regression"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.lowerIsBetter, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
