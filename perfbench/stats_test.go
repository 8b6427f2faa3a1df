package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// TestTailPercentile checks the tail rule: the highest ladder percentile
// with at least ten samples beyond it, by nearest rank.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantOK  bool
	}{
		{19, 0, false}, // p50 is rank 10, only 9 beyond
		{20, 50, true}, // p50 is rank 10, 10 beyond; p75 has 5
		{40, 75, true}, // p75 is rank 30, 10 beyond; p90 has 4
		{100, 90, true},
		{199, 90, true}, // p95 is rank 190, only 9 beyond
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		// Samples 1..n in shuffled order: the value at rank r is r.
		xs := make([]float64, tc.n)
		for i, j := range rand.New(rand.NewSource(int64(tc.n))).Perm(tc.n) {
			xs[i] = float64(j + 1)
		}
		pct, value, ok := tailPercentile(xs)
		if ok != tc.wantOK || pct != tc.wantPct {
			t.Errorf("n=%d: percentile %g (ok %t), want %g (ok %t)", tc.n, pct, ok, tc.wantPct, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if beyond := tc.n - int(value); beyond < 10 {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond it", tc.n, pct, value, beyond)
		}
	}
}

func TestSubSeedReproducible(t *testing.T) {
	if subSeed(1, 2, 3) != subSeed(1, 2, 3) {
		t.Fatal("subSeed is not a function of its arguments")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for v := 0; v < 4; v++ {
			s := subSeed(seed, v, 42)
			if s < 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d, 42) = %d is negative or repeats", seed, v, s)
			}
			seen[s] = true
		}
	}
}

func TestCycleSeconds(t *testing.T) {
	// Two variants over three cycles; variant 1's middle pass was slowed.
	s := time.Second
	passes := []time.Duration{1 * s, 10 * s, 2 * s, 40 * s, 3 * s, 12 * s}
	if got := cycleSeconds(passes, 2); got != 2+12 {
		t.Fatalf("cycleSeconds = %g, want 14", got)
	}
}

func TestMeasureCyclesWholeCycles(t *testing.T) {
	var seen []int
	passes, err := measureCycles(10*time.Millisecond, 3, func(v int) error {
		time.Sleep(time.Millisecond)
		return nil
	}, func(v int) error {
		seen = append(seen, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 3 || len(passes)%3 != 0 || len(seen) != len(passes) {
		t.Fatalf("%d passes, %d after calls: want whole cycles of 3", len(passes), len(seen))
	}
	for i, v := range seen {
		if v != i%3 {
			t.Fatalf("pass %d ran variant %d, want %d", i, v, i%3)
		}
	}
}
