package core

import (
	"fmt"

	"repro/internal/atpg"
	"repro/internal/bdd"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// DVar is the name of the composite-value variable. The paper requires it
// to be the last variable in the OBDD order ("D is supposed to be a
// primary input which is last in the BDD ordering"); the Propagator
// declares it after every digital primary input.
const DVar = "D"

// Propagator propagates composite values through the digital block of a
// mixed circuit using OBDDs: bound lines are substituted with constants
// or ±D according to an activation pattern, and a primary output tests
// the analog fault iff its resulting OBDD contains the D node.
type Propagator struct {
	mx  *Mixed
	gen *atpg.Generator
	d   bdd.Ref
}

// NewPropagator builds the digital block's good OBDDs and declares D as
// the final variable.
func NewPropagator(mx *Mixed, opts ...atpg.Option) (*Propagator, error) {
	defer obs.Default.StartSpan("core.build_propagator").End()
	gen, err := atpg.New(mx.Digital, opts...)
	if err != nil {
		return nil, err
	}
	m := gen.Manager()
	if _, exists := m.VarLevel(DVar); exists {
		return nil, fmt.Errorf("core: digital circuit already uses the reserved name %q", DVar)
	}
	d := m.Var(DVar)
	return &Propagator{mx: mx, gen: gen, d: d}, nil
}

// Generator exposes the underlying digital-ATPG generator (shared OBDDs).
func (p *Propagator) Generator() *atpg.Generator { return p.gen }

// PropResult describes a successful propagation: the outputs whose OBDDs
// contain D and one free-input vector that makes the first of them differ
// between the fault-free and faulty circuit.
type PropResult struct {
	Outputs []string        // primary outputs observing the fault
	Vector  map[string]bool // assignment to the free digital inputs
}

// Propagate substitutes the comparator pattern into every digital output
// OBDD. Pattern[k-1] gives comparator k's composite value; bound lines
// receive the corresponding constant, D (good=1/faulty=0) or ¬D. The
// fault is propagatable iff at least one output depends on D, and the
// returned vector satisfies ∂F/∂D = 1 on the first such output, exactly
// the paper's procedure ("a test vector is generated by simply choosing a
// path in the OBDD leading to D").
//
// D is last in the order, so each substituted output is
// F = ITE(D, F|D=1, F|D=0), and both cofactors are the good function
// restricted by a cube of constants: F depends on D iff they differ, and
// ∂F/∂D is their XOR.
func (p *Propagator) Propagate(pattern []waveform.Composite) (PropResult, bool, error) {
	cube0, cube1, err := p.cubes(pattern)
	if err != nil {
		return PropResult{}, false, err
	}
	m := p.gen.Manager()
	var res PropResult
	allDiff := bdd.False
	for _, o := range p.mx.Digital.Outputs() {
		f := p.gen.GoodFunction(o)
		f0, f1 := m.Cofactor(f, cube0), m.Cofactor(f, cube1)
		if f0 == f1 {
			continue
		}
		res.Outputs = append(res.Outputs, p.mx.Digital.Signal(o).Name)
		allDiff = m.Or(allDiff, m.Xor(f0, f1))
	}
	if len(res.Outputs) == 0 {
		return PropResult{}, false, nil
	}
	assign, ok := m.SatOneConstrained(allDiff, p.mx.FreeInputs())
	if !ok {
		// Output OBDDs contain the D node, but ∂F/∂D is unsatisfiable on
		// every output — D never changes an observed value. Treat as not
		// propagatable.
		return PropResult{}, false, nil
	}
	vec := make(map[string]bool, len(p.mx.FreeInputs()))
	for _, n := range p.mx.FreeInputs() {
		vec[n] = assign[n]
	}
	res.Vector = vec
	return res, true, nil
}

// cubes returns the constant cubes a pattern puts on the bound lines
// when D=0 and when D=1: a Zero or One line takes its constant in both,
// a D line takes D's value and a D̄ line the opposite one.
func (p *Propagator) cubes(pattern []waveform.Composite) (cube0, cube1 bdd.Ref, err error) {
	if len(pattern) != len(p.mx.Binding) {
		return bdd.False, bdd.False, fmt.Errorf("core: pattern of %d values for %d comparators",
			len(pattern), len(p.mx.Binding))
	}
	m := p.gen.Manager()
	literal := func(name string, val bool) bdd.Ref {
		if val {
			return m.Var(name)
		}
		return m.NVar(name)
	}
	cube0, cube1 = bdd.True, bdd.True
	for k, name := range p.mx.Binding {
		cube0 = m.And(cube0, literal(name, pattern[k].FaultyValue()))
		cube1 = m.And(cube1, literal(name, pattern[k].GoodValue()))
	}
	return cube0, cube1, nil
}

// ComparatorPattern builds the background pattern for a single toggling
// comparator: comparators below the target read One, the target carries
// the composite value, comparators above read Zero — the two adjacent
// thermometer codes of the paper's activation.
func ComparatorPattern(n, target int, v waveform.Composite) []waveform.Composite {
	out := make([]waveform.Composite, n)
	for k := 1; k <= n; k++ {
		switch {
		case k < target:
			out[k-1] = waveform.One
		case k == target:
			out[k-1] = v
		default:
			out[k-1] = waveform.Zero
		}
	}
	return out
}

// OutputOBDDs returns the named outputs' OBDDs after substituting the
// pattern, ITE(D, F|D=1, F|D=0) each, for rendering Figure 6-style
// diagrams.
func (p *Propagator) OutputOBDDs(pattern []waveform.Composite) (names []string, roots []bdd.Ref, err error) {
	cube0, cube1, err := p.cubes(pattern)
	if err != nil {
		return nil, nil, err
	}
	m := p.gen.Manager()
	for _, o := range p.mx.Digital.Outputs() {
		f := p.gen.GoodFunction(o)
		f0, f1 := m.Cofactor(f, cube0), m.Cofactor(f, cube1)
		names = append(names, p.mx.Digital.Signal(o).Name)
		roots = append(roots, m.ITE(p.d, f1, f0))
	}
	return names, roots, nil
}
