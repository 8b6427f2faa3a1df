package numeric

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root finder is handed an interval whose
// endpoints do not straddle a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// Bisect finds a root of f in [lo, hi] to within tol using bisection.
// f(lo) and f(hi) must have opposite signs (zero endpoints are accepted).
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 || hi-lo < tol {
			return mid, nil
		}
		if math.Signbit(fm) == math.Signbit(flo) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// Brent finds a root of f in [lo, hi] using Brent's method (inverse
// quadratic interpolation with bisection fallback). It converges much
// faster than plain bisection on the smooth deviation curves produced by
// the analog sensitivity engine.
// f must return the same value for the same argument: a step that lands
// back on the current best point reuses its value.
func Brent(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	return brent(f, lo, hi, f(lo), f(hi), tol)
}

// brent is Brent's method on [a, b] with f(a) = fa and f(b) = fb already
// known, so a caller that has just evaluated the ends does not pay again.
func brent(f func(float64) float64, a, b, fa, fb, tol float64) (float64, error) {
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, ErrNoBracket
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo34 := (3*a + b) / 4
		cond := (s < math.Min(lo34, b) || s > math.Max(lo34, b)) ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := fb // interpolation can land back on b once fb is tiny
		if s != b {
			fs = f(s)
		}
		d, c, fc = c, b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrNoConverge
}

// GoldenMax finds the argument in [lo, hi] that maximises the unimodal
// function f, to within tol, using golden-section search. Used to locate a
// filter's center frequency (gain peak) on a log-frequency axis.
func GoldenMax(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	const invPhi = 0.6180339887498949 // 1/φ
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for math.Abs(b-a) > tol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	x = (a + b) / 2
	return x, f(x)
}

// expandBracket grows the interval [lo, hi] geometrically around hi until
// f changes sign relative to flo = f(lo) or the limit is reached. It
// returns the bracketing interval and f at both of its ends, and never
// evaluates f twice at one point. Worst-case deviation crossings can lie
// anywhere from a few percent to several hundred percent.
func expandBracket(f func(float64) float64, lo, hi, flo, limit float64) (a, b, fa, fb float64, err error) {
	if flo == 0 {
		return lo, lo, flo, flo, nil
	}
	step := hi - lo
	if step <= 0 {
		return 0, 0, 0, 0, errors.New("numeric: expandBracket requires hi > lo")
	}
	a, b, fa = lo, hi, flo
	for i := 0; i < 80; i++ {
		fb = f(b)
		if fb == 0 || math.Signbit(flo) != math.Signbit(fb) {
			return a, b, fa, fb, nil
		}
		a, fa = b, fb
		step *= 1.6
		b += step
		if b > limit {
			if a == limit {
				break // f(limit) is already known not to cross
			}
			b = limit
			fb = f(b)
			if math.Signbit(flo) != math.Signbit(fb) {
				return a, b, fa, fb, nil
			}
			break
		}
	}
	return 0, 0, 0, 0, ErrNoBracket
}

// SmallestCrossing returns the smallest |δ| at which h(δ) reaches zero
// from h(0): the worst-case deviation search of the analog, DAC, ADC and
// digital→analog ED computations. Each sign is searched on its own, up
// to +maxDev and down to −min(maxDev, 0.95) (−100% would zero the
// element): a bracket grows geometrically from 0.01 and Brent refines it
// to tol. +Inf when no side crosses. h(0) is evaluated once and the
// bracket ends are handed on to Brent, so h never runs twice at one δ.
func SmallestCrossing(h func(float64) float64, maxDev, tol float64) float64 {
	h0 := h(0)
	best := math.Inf(1)
	for _, sign := range []float64{1, -1} {
		limit := maxDev
		if sign < 0 && limit > 0.95 {
			limit = 0.95
		}
		g := func(mag float64) float64 { return h(sign * mag) }
		a, b, fa, fb, err := expandBracket(g, 0, 0.01, h0, limit)
		if err != nil {
			continue
		}
		if x, err := brent(g, a, b, fa, fb, tol); err == nil && x < best {
			best = x
		}
	}
	return best
}
