package analog

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mna"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// ED-search instrumentation: solves counts WorstCaseED calls, evals the
// deviation-curve evaluations spent bracketing and running Brent — the
// convergence-iteration figure of the ED engine.
var (
	cEDSolves = obs.Default.Counter("analog.ed.solves")
	cEDEvals  = obs.Default.Counter("analog.ed.evals")
)

// ParamDeviation returns the relative deviation (T(δ) − T₀)/T₀ of the
// parameter when the element's value is multiplied by (1 + δ), with every
// other element at nominal. T₀ is measured on the unperturbed circuit.
func ParamDeviation(c *mna.Circuit, elem string, p Parameter, delta float64) (float64, error) {
	t0, err := nominal(c, p)
	if err != nil {
		return 0, err
	}
	return deviation(c, elem, p, t0, delta)
}

// Sensitivity returns the normalised first-order sensitivity
// S = (∂T/T)/(∂x/x), estimated by a central finite difference with
// relative step h (1e-4 is a good default for the filters here).
func Sensitivity(c *mna.Circuit, elem string, p Parameter, h float64) (float64, error) {
	t0, err := nominal(c, p)
	if err != nil {
		return 0, err
	}
	return sensitivity(c, elem, p, t0, h)
}

// nominal measures T₀, the parameter on the unperturbed circuit, which
// every relative deviation is taken against.
func nominal(c *mna.Circuit, p Parameter) (float64, error) {
	t0, err := p.Measure(c)
	if err != nil {
		return 0, err
	}
	if t0 == 0 {
		return 0, fmt.Errorf("analog: parameter %s is zero at nominal; relative deviation undefined", p.Name())
	}
	return t0, nil
}

// deviation is ParamDeviation against a known T₀: one measurement.
func deviation(c *mna.Circuit, elem string, p Parameter, t0, delta float64) (float64, error) {
	restore := c.Perturb(elem, delta)
	defer restore()
	t1, err := p.Measure(c)
	if err != nil {
		return 0, err
	}
	return (t1 - t0) / t0, nil
}

// sensitivity is Sensitivity against a known T₀: two measurements.
func sensitivity(c *mna.Circuit, elem string, p Parameter, t0, h float64) (float64, error) {
	if h <= 0 {
		h = 1e-4
	}
	up, err := deviation(c, elem, p, t0, h)
	if err != nil {
		return 0, err
	}
	down, err := deviation(c, elem, p, t0, -h)
	if err != nil {
		return 0, err
	}
	return (up - down) / (2 * h), nil
}

// EDOptions configures the worst-case element-deviation computation.
type EDOptions struct {
	// Tol is the parameter tolerance box half-width (the paper uses 5%,
	// i.e. 0.05): a parameter is faulty when it leaves [−Tol, +Tol].
	Tol float64
	// ElemTol is the tolerance of fault-free elements (from the "data
	// sheets"); their worst-case masking is added to the detection
	// threshold. Zero disables masking.
	ElemTol float64
	// MaxDev bounds the search (as a fraction; 20 ≡ 2000%). Deviations
	// beyond it are reported as unobservable (+Inf).
	MaxDev float64
	// Step is the finite-difference step for masking sensitivities.
	Step float64
}

// DefaultEDOptions returns the paper's setup: 5% parameter boxes, 5%
// fault-free element tolerances, searches capped at 2000%.
func DefaultEDOptions() EDOptions {
	return EDOptions{Tol: 0.05, ElemTol: 0.05, MaxDev: 20, Step: 1e-4}
}

// Unobservable marks an (element, parameter) pair whose deviation can
// never be seen at that parameter.
func Unobservable(ed float64) bool { return math.IsInf(ed, 1) }

// WorstCaseED computes the worst-case element deviation of elem with
// respect to parameter p: the smallest |δ| guaranteed to push the
// parameter out of its tolerance box even when every fault-free element
// masks the measurement by its own tolerance. others lists the fault-free
// elements contributing masking. The result is a fraction (0.099 = 9.9%);
// +Inf when no deviation up to MaxDev is observable.
func WorstCaseED(c *mna.Circuit, elem string, p Parameter, others []string, opt EDOptions) (float64, error) {
	others = slices.DeleteFunc(slices.Clone(others), func(e string) bool { return e == elem })
	t0, sens, err := column(c, p, others, opt)
	if err != nil {
		return 0, err
	}
	return worstCaseED(c, elem, p, t0, others, sens, opt)
}

// column measures what every ED cell of parameter p shares: T₀, and the
// masking sensitivity of each of elems when masking is on (else zeros).
func column(c *mna.Circuit, p Parameter, elems []string, opt EDOptions) (t0 float64, sens []float64, err error) {
	if t0, err = nominal(c, p); err != nil {
		return 0, nil, err
	}
	sens = make([]float64, len(elems))
	if opt.ElemTol <= 0 {
		return t0, sens, nil
	}
	for k, e := range elems {
		if sens[k], err = sensitivity(c, e, p, t0, opt.Step); err != nil {
			return 0, nil, err
		}
	}
	return t0, sens, nil
}

// worstCaseED is WorstCaseED with T₀ and the masking sensitivity sens[k]
// of each others[k] already measured (entries for elem itself are unused).
func worstCaseED(c *mna.Circuit, elem string, p Parameter, t0 float64, others []string, sens []float64, opt EDOptions) (float64, error) {
	cEDSolves.Inc()
	// Worst-case masking slack: sum of |S_e| · tol_e over fault-free
	// elements (first-order, as in the sensitivity-based method of [8]),
	// summed in others order.
	slack := 0.0
	for k, e := range others {
		if e != elem {
			slack += math.Abs(sens[k]) * opt.ElemTol
		}
	}
	threshold := opt.Tol + slack

	var measureErr error
	h := func(delta float64) float64 {
		cEDEvals.Inc()
		dev, err := deviation(c, elem, p, t0, delta)
		if err != nil {
			if measureErr == nil {
				measureErr = err
			}
			return 0
		}
		return math.Abs(dev) - threshold
	}
	ed := numeric.SmallestCrossing(h, opt.MaxDev, 1e-6)
	if measureErr != nil {
		return 0, measureErr
	}
	return ed, nil
}
