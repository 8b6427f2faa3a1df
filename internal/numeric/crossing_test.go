package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refExpandBracket is ExpandBracket as it was before SmallestCrossing
// existed, kept verbatim as the reference the shared search must match.
func refExpandBracket(f func(float64) float64, lo, hi, limit float64) (a, b float64, err error) {
	fa := f(lo)
	if fa == 0 {
		return lo, lo, nil
	}
	step := hi - lo
	if step <= 0 {
		return 0, 0, errors.New("numeric: ExpandBracket requires hi > lo")
	}
	a, b = lo, hi
	for i := 0; i < 80; i++ {
		fb := f(b)
		if fb == 0 || math.Signbit(fa) != math.Signbit(fb) {
			return a, b, nil
		}
		a = b
		step *= 1.6
		b += step
		if b > limit {
			b = limit
			fb = f(b)
			if math.Signbit(fa) != math.Signbit(fb) {
				return a, b, nil
			}
			return 0, 0, ErrNoBracket
		}
	}
	return 0, 0, ErrNoBracket
}

// refSmallestCrossing is the per-sign ExpandBracket + Brent composition
// that the ED searches of analog, dac, adc and core each carried.
func refSmallestCrossing(h func(float64) float64, maxDev, tol float64) float64 {
	best := math.Inf(1)
	for _, sign := range []float64{1, -1} {
		limit := maxDev
		if sign < 0 && limit > 0.95 {
			limit = 0.95
		}
		g := func(mag float64) float64 { return h(sign * mag) }
		a, b, err := refExpandBracket(g, 0, 0.01, limit)
		if err != nil {
			continue
		}
		x, err := Brent(g, a, b, tol)
		if err != nil {
			continue
		}
		if x < best {
			best = x
		}
	}
	return best
}

// randomDeviation draws a deviation curve h(δ) = |dev(δ)| − threshold of
// the kind the ED searches solve: monotone (polynomial with same-sign
// coefficients, exponential) or not (a sinusoid riding a slope, a
// polynomial with roots inside the search range), sometimes never
// crossing and sometimes starting on the threshold.
func randomDeviation(r *rand.Rand) func(float64) float64 {
	threshold := []float64{0, 0.05, 0.1 + r.Float64(), 5 * r.Float64()}[r.Intn(4)]
	var dev func(float64) float64
	switch r.Intn(5) {
	case 0: // monotone polynomial
		c1, c2, c3 := r.Float64(), r.Float64()/4, r.Float64()/16
		dev = func(d float64) float64 { return c1*d + c2*d*d*d + c3*d*d*d*d*d }
	case 1: // monotone, saturating on one side
		k := 0.1 + 3*r.Float64()
		dev = func(d float64) float64 { return math.Exp(k*d) - 1 }
	case 2: // ripple on a slope
		amp, w, slope := r.Float64(), 1+20*r.Float64(), r.Float64()/10
		dev = func(d float64) float64 { return amp*math.Sin(w*d) + slope*d }
	case 3: // polynomial with roots inside the range
		r1, r2 := 40*r.Float64()-20, 2*r.Float64()-1
		dev = func(d float64) float64 { return d * (d - r1) * (d - r2) / 50 }
	default: // weak element: may never cross
		c := r.Float64() / 1000
		dev = func(d float64) float64 { return c * d }
	}
	return func(d float64) float64 { return math.Abs(dev(d)) - threshold }
}

// TestSmallestCrossingMatchesReference checks, on random monotone and
// non-monotone curves, that SmallestCrossing returns exactly the bits of
// the ExpandBracket + Brent composition, and never evaluates h twice at
// the same deviation.
func TestSmallestCrossingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	finite, inf := 0, 0
	for n := 0; n < 5000; n++ {
		h := randomDeviation(r)
		maxDev := []float64{20, 0.5, 0.95, 3}[r.Intn(4)]
		tol := []float64{1e-6, 1e-7, 1e-9}[r.Intn(3)]
		want := refSmallestCrossing(h, maxDev, tol)
		seen := map[float64]bool{}
		got := SmallestCrossing(func(d float64) float64 {
			if seen[d] {
				t.Fatalf("case %d: h evaluated twice at δ = %v", n, d)
			}
			seen[d] = true
			return h(d)
		}, maxDev, tol)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (maxDev %g, tol %g): SmallestCrossing = %v, reference %v", n, maxDev, tol, got, want)
		}
		if math.IsInf(got, 1) {
			inf++
		} else {
			finite++
		}
	}
	if finite < 1000 || inf < 100 {
		t.Errorf("weak sample: %d finite crossings, %d never crossing", finite, inf)
	}
}

// TestSmallestCrossingLimits covers the edges: a curve already on the
// threshold at δ = 0, a crossing only past the −0.95 floor, and a
// crossing landing exactly on the cap.
func TestSmallestCrossingLimits(t *testing.T) {
	if got := SmallestCrossing(func(d float64) float64 { return 0 }, 20, 1e-9); got != 0 {
		t.Errorf("h ≡ 0: got %v, want 0", got)
	}
	// Only a −97% deviation would cross: beyond the floor, so +Inf.
	if got := SmallestCrossing(func(d float64) float64 { return -d - 0.97 }, 20, 1e-9); !math.IsInf(got, 1) {
		t.Errorf("crossing past the floor: got %v, want +Inf", got)
	}
	// |δ| − 2 crosses at exactly 2 on both sides; only +2 is reachable.
	if got := SmallestCrossing(func(d float64) float64 { return math.Abs(d) - 2 }, 2, 1e-12); got != 2 {
		t.Errorf("crossing on the cap: got %v, want 2", got)
	}
}
