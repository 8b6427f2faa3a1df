// Package dac models the digital-to-analog conversion block of the
// paper's announced dual configuration (digital block → DAC → analog
// block, "the subject of another paper"): an R-2R ladder converter built
// on the MNA simulator, with per-element fault analysis mirroring the
// flash converter's Table 6 coverage model.
package dac

import (
	"fmt"
	"math"

	"repro/internal/mna"
	"repro/internal/numeric"
)

// R2R is a voltage-mode R-2R ladder DAC: bit i drives a 2R leg into rung
// node i, rung resistors R connect adjacent nodes, a 2R terminator closes
// the LSB end, and the MSB rung node is the output. With ideal elements
// Vout(code) = Vref · code / 2^bits.
//
// Ladder element names: "Rt" (terminator), "Ra<i>" (bit-i leg, nominal
// 2R), "Rr<i>" (rung between nodes i and i+1, nominal R).
type R2R struct {
	bits int
	vref float64
	ckt  *mna.Circuit
}

// baseR is the nominal rung resistance.
const baseR = 10e3

// NewR2R builds an n-bit ladder with nominal elements.
func NewR2R(bits int, vref float64) *R2R {
	if bits < 1 || bits > 16 {
		//lint:allow nopanic constructor precondition on the resolution
		panic(fmt.Sprintf("dac: unsupported resolution %d bits", bits))
	}
	if vref <= 0 {
		//lint:allow nopanic constructor precondition on the reference voltage
		panic(fmt.Sprintf("dac: non-positive reference %g", vref))
	}
	c := mna.New(fmt.Sprintf("r2r%d", bits))
	c.AddR("Rt", node(0), "0", 2*baseR)
	for i := 0; i < bits; i++ {
		src := fmt.Sprintf("b%d", i)
		c.AddV(fmt.Sprintf("B%d", i), src, "0", 0, 0)
		c.AddR(fmt.Sprintf("Ra%d", i), src, node(i), 2*baseR)
		if i+1 < bits {
			c.AddR(fmt.Sprintf("Rr%d", i), node(i), node(i+1), baseR)
		}
	}
	return &R2R{bits: bits, vref: vref, ckt: c}
}

func node(i int) string { return fmt.Sprintf("n%d", i) }

// Bits returns the resolution.
func (d *R2R) Bits() int { return d.bits }

// Vref returns the reference voltage.
func (d *R2R) Vref() float64 { return d.vref }

// FullScale returns the largest output code.
func (d *R2R) FullScale() int { return 1<<uint(d.bits) - 1 }

// LSB returns the ideal output step per code.
func (d *R2R) LSB() float64 { return d.vref / float64(int(1)<<uint(d.bits)) }

// ElementNames lists the ladder's fault universe.
func (d *R2R) ElementNames() []string {
	out := []string{"Rt"}
	for i := 0; i < d.bits; i++ {
		out = append(out, fmt.Sprintf("Ra%d", i))
		if i+1 < d.bits {
			out = append(out, fmt.Sprintf("Rr%d", i))
		}
	}
	return out
}

// Perturb multiplies a ladder element by (1+delta), returning a restore
// function.
func (d *R2R) Perturb(name string, delta float64) (restore func()) {
	return d.ckt.Perturb(name, delta)
}

// IdealVout returns the ideal transfer value Vref·code/2^bits.
func (d *R2R) IdealVout(code int) float64 {
	return d.vref * float64(code) / float64(int(1)<<uint(d.bits))
}

// weights solves the ladder once per bit (superposition over the linear
// network): weights[i] is the output voltage with only bit i driven at
// Vref.
func (d *R2R) weights() ([]float64, error) {
	out := make([]float64, d.bits)
	for i := 0; i < d.bits; i++ {
		for j := 0; j < d.bits; j++ {
			v := 0.0
			if j == i {
				v = d.vref
			}
			d.setBit(j, v)
		}
		sol, err := d.ckt.DC()
		if err != nil {
			return nil, fmt.Errorf("dac: solving bit %d: %w", i, err)
		}
		out[i] = real(sol.V(node(d.bits - 1)))
	}
	return out, nil
}

func (d *R2R) setBit(i int, volts float64) {
	// The MNA circuit stores the DC level in the source's dc field; the
	// ac amplitude stays 0. SetValue adjusts the ac field, so drive the
	// dc level through a dedicated accessor below.
	d.ckt.SetSourceDC(fmt.Sprintf("B%d", i), volts)
}

// Vout returns the ladder output for an input code with the current
// (possibly perturbed) element values.
func (d *R2R) Vout(code int) (float64, error) {
	if code < 0 || code > d.FullScale() {
		return 0, fmt.Errorf("dac: code %d out of range 0..%d", code, d.FullScale())
	}
	w, err := d.weights()
	if err != nil {
		return 0, err
	}
	v := 0.0
	for i := 0; i < d.bits; i++ {
		if code&(1<<uint(i)) != 0 {
			v += w[i]
		}
	}
	return v, nil
}

// TransferTable returns Vout for every code (2^bits entries) using
// superposition, so the cost is bits DC solves, not 2^bits.
func (d *R2R) TransferTable() ([]float64, error) {
	w, err := d.weights()
	if err != nil {
		return nil, err
	}
	n := int(1) << uint(d.bits)
	out := make([]float64, n)
	for code := 0; code < n; code++ {
		v := 0.0
		for i := 0; i < d.bits; i++ {
			if code&(1<<uint(i)) != 0 {
				v += w[i]
			}
		}
		out[code] = v
	}
	return out, nil
}

// INLMaxLSB returns the worst integral nonlinearity of the current ladder
// in LSB units: max over codes of |Vout(code) − IdealVout(code)| / LSB.
func (d *R2R) INLMaxLSB() (float64, error) {
	table, err := d.TransferTable()
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for code, v := range table {
		if e := math.Abs(v-d.IdealVout(code)) / d.LSB(); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// EDOptions configures the ladder coverage analysis, mirroring the flash
// converter's model: Accuracy is the measurement accuracy at the DAC
// output as a fraction of Vref.
type EDOptions struct {
	Accuracy float64
	MaxDev   float64
}

// DefaultEDOptions mirrors the paper's 5% setup.
func DefaultEDOptions() EDOptions { return EDOptions{Accuracy: 0.05, MaxDev: 20} }

// ElementED returns the minimal deviation of the named ladder element
// observable at the DAC output: the smallest |δ| whose worst-case output
// error over all codes reaches Accuracy·Vref. +Inf when the element
// cannot be seen within MaxDev — the MSB-side elements dominate the
// output, so their EDs are small, while deep-LSB elements require huge
// deviations: the R-2R dual of Table 6's mid-ladder peak.
func (d *R2R) ElementED(name string, opt EDOptions) float64 {
	nominal, err := d.TransferTable()
	if err != nil {
		return math.Inf(1)
	}
	target := opt.Accuracy * d.vref
	h := func(delta float64) float64 {
		restore := d.Perturb(name, delta)
		defer restore()
		table, err := d.TransferTable()
		if err != nil {
			return -target
		}
		worst := 0.0
		for code, v := range table {
			if e := math.Abs(v - nominal[code]); e > worst {
				worst = e
			}
		}
		return worst - target
	}
	return numeric.SmallestCrossing(h, opt.MaxDev, 1e-7)
}

// CoverageTable returns ElementED for every ladder element, in
// ElementNames order.
func (d *R2R) CoverageTable(opt EDOptions) []float64 {
	names := d.ElementNames()
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = d.ElementED(n, opt)
	}
	return out
}
