package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN, so that it cannot pass for a measurement")
	}
}

func TestBeyond(t *testing.T) {
	// 200 samples: the p90 sits at index 179.1, 20 samples lie above it.
	if got := beyond(200, 0.9); got != 20 {
		t.Errorf("beyond(200, 0.9) = %d, want 20", got)
	}
	if got := beyond(10, 0.9); got != 1 {
		t.Errorf("beyond(10, 0.9) = %d, want 1", got)
	}
}

// TestIQRShare checks the spread against Python's
// statistics.quantiles(values, n=4), which the acceptance check uses:
// for 1..10 it gives [2.75, 5.5, 8.25].
func TestIQRShare(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	// Three values: the quartiles are the minimum and the maximum.
	if got, want := iqrShare([]float64{2, 4, 3}), (4.0-2.0)/3.0; !near(got, want) {
		t.Errorf("iqrShare(2,3,4) = %v, want %v", got, want)
	}
}

func TestSpreadPct(t *testing.T) {
	if got := spreadPct([]float64{10, 12, 11}); !near(got, 20) {
		t.Errorf("spreadPct = %v, want 20", got)
	}
}

func TestEnvComparable(t *testing.T) {
	a := envRecord{NProc: 2, GOMAXPROCS: 2, SIMD: true}
	if err := a.comparable(envRecord{NProc: 2, GOMAXPROCS: 2, SIMD: true, Seed: 9, GitCommit: "x"}); err != nil {
		t.Errorf("same cores and SIMD must compare: %v", err)
	}
	if a.comparable(envRecord{NProc: 4, GOMAXPROCS: 2, SIMD: true}) == nil {
		t.Error("different core counts compared")
	}
	if a.comparable(envRecord{NProc: 2, GOMAXPROCS: 2, SIMD: false}) == nil {
		t.Error("different SIMD availability compared")
	}
}
