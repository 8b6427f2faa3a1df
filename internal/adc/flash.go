// Package adc models the paper's conversion block: a flash converter made
// of a resistor string and a bank of comparators (15 comparators / 16
// resistors in Example 3), its thermometer-code constraint function Fc,
// the ladder-element coverage analysis behind Tables 6 and 7, and a
// behavioural successive-approximation ADC standing in for the AD7820 of
// the Figure 8 board.
package adc

import (
	"fmt"
	"math"

	"repro/internal/bdd"
	"repro/internal/numeric"
)

// Flash is a flash converter: NumComparators()+1 ladder resistors between
// the reference rails produce one threshold per comparator; comparator k
// (1-based) outputs 1 while the input exceeds threshold k.
type Flash struct {
	vlo, vhi float64
	ladder   []float64 // resistor values, bottom (R1) to top (R_{n+1})
}

// NewFlash builds a flash converter with n comparators and n+1 equal
// nominal ladder resistors of 1 kΩ between vlo and vhi.
func NewFlash(n int, vlo, vhi float64) *Flash {
	if n < 1 {
		//lint:allow nopanic constructor precondition; bad n is a caller bug
		panic(fmt.Sprintf("adc: need at least one comparator, got %d", n))
	}
	if vhi <= vlo {
		//lint:allow nopanic constructor precondition on the reference rails
		panic(fmt.Sprintf("adc: reference rails inverted: [%g, %g]", vlo, vhi))
	}
	ladder := make([]float64, n+1)
	for i := range ladder {
		ladder[i] = 1e3
	}
	return &Flash{vlo: vlo, vhi: vhi, ladder: ladder}
}

// NumComparators returns the number of comparators.
func (f *Flash) NumComparators() int { return len(f.ladder) - 1 }

// NumResistors returns the number of ladder resistors.
func (f *Flash) NumResistors() int { return len(f.ladder) }

// Rails returns the reference rails (vlo, vhi).
func (f *Flash) Rails() (float64, float64) { return f.vlo, f.vhi }

// RValue returns the value of ladder resistor i (1-based).
func (f *Flash) RValue(i int) float64 { return f.ladder[i-1] }

// SetR replaces ladder resistor i (1-based).
func (f *Flash) SetR(i int, v float64) {
	if v <= 0 {
		//lint:allow nopanic non-positive resistance is a caller bug, not a runtime condition
		panic(fmt.Sprintf("adc: resistor R%d must stay positive, got %g", i, v))
	}
	f.ladder[i-1] = v
}

// PerturbR multiplies ladder resistor i (1-based) by (1+delta) and
// returns a restore function.
func (f *Flash) PerturbR(i int, delta float64) (restore func()) {
	old := f.ladder[i-1]
	f.SetR(i, old*(1+delta))
	return func() { f.ladder[i-1] = old }
}

// Threshold returns the reference voltage Vt_k of comparator k (1-based):
// the tap above the bottom k ladder resistors.
func (f *Flash) Threshold(k int) float64 {
	if k < 1 || k > f.NumComparators() {
		//lint:allow nopanic comparator index out of range is a caller bug
		panic(fmt.Sprintf("adc: comparator %d out of range 1..%d", k, f.NumComparators()))
	}
	var sk, st float64
	for i, r := range f.ladder {
		st += r
		if i < k {
			sk += r
		}
	}
	return f.vlo + (f.vhi-f.vlo)*sk/st
}

// Thresholds returns every comparator threshold, ascending for a healthy
// ladder.
func (f *Flash) Thresholds() []float64 {
	out := make([]float64, f.NumComparators())
	for k := 1; k <= f.NumComparators(); k++ {
		out[k-1] = f.Threshold(k)
	}
	return out
}

// Encode returns the comparator outputs for an input voltage: out[k-1] is
// comparator k. A healthy ladder yields a thermometer code.
func (f *Flash) Encode(v float64) []bool {
	out := make([]bool, f.NumComparators())
	for k := 1; k <= f.NumComparators(); k++ {
		out[k-1] = v > f.Threshold(k)
	}
	return out
}

// Code returns the number of comparators asserted for the input voltage —
// the converter's output code 0..NumComparators().
func (f *Flash) Code(v float64) int {
	n := 0
	for _, b := range f.Encode(v) {
		if b {
			n++
		}
	}
	return n
}

// ThermometerRows returns the NumComparators()+1 legal comparator output
// combinations (all thermometer codes), each as a bool row aligned with
// comparator order — the product terms of the paper's constraint function.
func (f *Flash) ThermometerRows() [][]bool {
	n := f.NumComparators()
	rows := make([][]bool, 0, n+1)
	for ones := 0; ones <= n; ones++ {
		row := make([]bool, n)
		for i := 0; i < ones; i++ {
			row[i] = true
		}
		rows = append(rows, row)
	}
	return rows
}

// ConstraintBDD builds Fc over the given variable names (one per
// comparator, in comparator order): the sum of the thermometer product
// terms. Any assignment satisfying Fc is reachable by driving the analog
// input; everything else is forbidden, which is exactly the dependency
// the paper's Example 3 imposes on the digital block.
//
// The BDD is built directly from the "next code bit implies previous" form
// c_{k+1} → c_k, which is linear in n, rather than by summing the n+1
// product terms.
func (f *Flash) ConstraintBDD(m *bdd.Manager, names []string) bdd.Ref {
	if len(names) != f.NumComparators() {
		//lint:allow nopanic binding arity mismatch is a wiring bug in the caller
		panic(fmt.Sprintf("adc: %d names for %d comparators", len(names), f.NumComparators()))
	}
	fc := bdd.True
	for k := 0; k+1 < len(names); k++ {
		fc = m.And(fc, m.Implies(m.Var(names[k+1]), m.Var(names[k])))
	}
	return fc
}

// DecodeThermometer interprets a comparator output pattern as a code.
// ok is false when the pattern is not a thermometer code (a "bubble"),
// which a healthy converter never produces but a faulty ladder — with
// non-monotone thresholds — can. The returned code is then the number of
// asserted comparators (the bubble-blind count).
func DecodeThermometer(pattern []bool) (code int, ok bool) {
	ok = true
	seenZero := false
	for _, b := range pattern {
		if b {
			if seenZero {
				ok = false
			}
			code++
		} else {
			seenZero = true
		}
	}
	return code, ok
}

// SuppressBubbles repairs a non-thermometer pattern the way flash
// converters do in hardware: each interior comparator output is replaced
// by the majority of itself and its two neighbours (the ends majority
// with the implicit rail values 1 below and 0 above). Single-bubble
// patterns become clean thermometer codes; the input is not modified.
func SuppressBubbles(pattern []bool) []bool {
	n := len(pattern)
	out := make([]bool, n)
	at := func(i int) bool {
		switch {
		case i < 0:
			return true // below the bottom comparator everything is 1
		case i >= n:
			return false
		}
		return pattern[i]
	}
	for i := 0; i < n; i++ {
		votes := 0
		for _, b := range []bool{at(i - 1), at(i), at(i + 1)} {
			if b {
				votes++
			}
		}
		out[i] = votes >= 2
	}
	return out
}

// LSB returns the ideal step between adjacent thresholds.
func (f *Flash) LSB() float64 {
	return (f.vhi - f.vlo) / float64(f.NumResistors())
}

// INLMaxLSB returns the worst integral nonlinearity of the converter in
// LSB units: the largest deviation of any threshold from its ideal
// equally spaced position. Zero for a nominal ladder.
func (f *Flash) INLMaxLSB() float64 {
	lsb := f.LSB()
	worst := 0.0
	for k := 1; k <= f.NumComparators(); k++ {
		ideal := f.vlo + float64(k)*lsb
		if e := math.Abs(f.Threshold(k)-ideal) / lsb; e > worst {
			worst = e
		}
	}
	return worst
}

// DNLMaxLSB returns the worst differential nonlinearity in LSB units: the
// largest deviation of any threshold-to-threshold step from one LSB.
func (f *Flash) DNLMaxLSB() float64 {
	lsb := f.LSB()
	worst := 0.0
	prev := f.vlo
	for k := 1; k <= f.NumComparators(); k++ {
		vt := f.Threshold(k)
		if e := math.Abs((vt-prev)/lsb - 1); e > worst {
			worst = e
		}
		prev = vt
	}
	return worst
}

// EDOptions configures the ladder coverage analysis.
type EDOptions struct {
	// Accuracy is the relative accuracy ε of the analog stimulus used to
	// probe a threshold, referenced to the distance between the
	// threshold and the rail the stimulus approaches from (the paper's
	// ±5 % tolerance boxes → 0.05).
	Accuracy float64
	// MaxDev caps the search (fraction, e.g. 20 ≡ 2000 %).
	MaxDev float64
}

// DefaultEDOptions mirrors the paper's 5 % setup.
func DefaultEDOptions() EDOptions { return EDOptions{Accuracy: 0.05, MaxDev: 20} }

// EDViaComparator returns the minimal deviation (fraction) of ladder
// resistor i (1-based) observable at comparator k: the smallest |δ| that
// moves threshold Vt_k by more than ε times the headroom between Vt_k and
// the reference rail on the side the resistor sits. +Inf when the
// deviation cannot be seen at that comparator within MaxDev.
func (f *Flash) EDViaComparator(i, k int, opt EDOptions) float64 {
	vt0 := f.Threshold(k)
	var ref float64
	if i <= k {
		ref = vt0 - f.vlo // stimulus referenced to the bottom rail
	} else {
		ref = f.vhi - vt0 // stimulus referenced to the top rail
	}
	if ref <= 0 {
		return math.Inf(1)
	}
	target := opt.Accuracy * ref
	h := func(delta float64) float64 {
		restore := f.PerturbR(i, delta)
		defer restore()
		return math.Abs(f.Threshold(k)-vt0) - target
	}
	return numeric.SmallestCrossing(h, opt.MaxDev, 1e-9)
}

// ElementED returns the coverage of ladder resistor i: the minimal
// deviation observable at any comparator in allowed (nil = all). This is
// one cell of Table 6 (direct access) or Table 7 (allowed restricted to
// the comparators through which the digital block propagates).
func (f *Flash) ElementED(i int, allowed map[int]bool, opt EDOptions) float64 {
	best := math.Inf(1)
	for k := 1; k <= f.NumComparators(); k++ {
		if allowed != nil && !allowed[k] {
			continue
		}
		if ed := f.EDViaComparator(i, k, opt); ed < best {
			best = ed
		}
	}
	return best
}

// BestComparatorFor returns the comparator observing resistor i at the
// smallest deviation among allowed (nil = all), or 0 if none.
func (f *Flash) BestComparatorFor(i int, allowed map[int]bool, opt EDOptions) int {
	best, bestED := 0, math.Inf(1)
	for k := 1; k <= f.NumComparators(); k++ {
		if allowed != nil && !allowed[k] {
			continue
		}
		if ed := f.EDViaComparator(i, k, opt); ed < bestED {
			best, bestED = k, ed
		}
	}
	return best
}

// CoverageTable returns ElementED for every ladder resistor (index 0 is
// R1), the full Table 6/7 row.
func (f *Flash) CoverageTable(allowed map[int]bool, opt EDOptions) []float64 {
	out := make([]float64, f.NumResistors())
	for i := 1; i <= f.NumResistors(); i++ {
		out[i-1] = f.ElementED(i, allowed, opt)
	}
	return out
}
