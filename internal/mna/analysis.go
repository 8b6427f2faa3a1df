package mna

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// Solution holds the result of one DC or AC analysis: the phasor voltage
// of every node at the analysis frequency, plus the branch currents of
// the group-2 elements (voltage sources, inductors, VCVS, op-amps), read
// through the circuit's indices: add no elements while reading it.
type Solution struct {
	circuit *Circuit
	freq    float64
	x       []complex128 // the MNA unknowns: node i at x[i-1], then branch currents
}

// Freq returns the analysis frequency in Hz (0 for DC).
func (s *Solution) Freq() float64 { return s.freq }

// V returns the phasor voltage at the named node.
func (s *Solution) V(node string) complex128 { return s.circuit.nodeV(s.x, node) }

// nodeV reads the named node's voltage from the solution vector x.
func (c *Circuit) nodeV(x []complex128, node string) complex128 {
	if isGround(node) {
		return 0
	}
	idx, ok := c.nodes[node]
	if !ok {
		//lint:allow nopanic probing an unknown node is a caller bug in experiment code
		panic(fmt.Sprintf("mna: no node %q in circuit %q", node, c.name))
	}
	return x[idx-1]
}

// Mag returns |V(node)|.
func (s *Solution) Mag(node string) float64 { return cmplx.Abs(s.V(node)) }

// PhaseDeg returns the phase of V(node) in degrees.
func (s *Solution) PhaseDeg(node string) float64 {
	return cmplx.Phase(s.V(node)) * 180 / math.Pi
}

// BranchCurrent returns the phasor current through a group-2 element
// (voltage source, inductor, VCVS or op-amp output), flowing from the
// element's positive terminal through it to the negative one — the SPICE
// convention, under which a sourcing battery reads a negative current.
// It panics for elements without a branch unknown (use a 0 V sense
// source in series to probe a group-1 branch).
func (s *Solution) BranchCurrent(name string) complex128 {
	e, ok := s.circuit.byName[name]
	if !ok || e.branch < 0 {
		//lint:allow nopanic documented contract: panics for elements without a branch unknown
		panic(fmt.Sprintf("mna: element %q has no branch current in circuit %q", name, s.circuit.name))
	}
	return s.x[e.branch]
}

// workspace is a circuit's solve scratch: the system A·x = b, its
// solution and the pivot scales, sized to the system and reused by every
// solve so that a solve allocates nothing.
type workspace struct {
	a     [][]complex128
	b, x  []complex128
	scale []float64
}

// reset sizes the workspace to an n-unknown system and zeroes A and b.
func (w *workspace) reset(n int) {
	if len(w.b) != n {
		w.a, w.b, w.x, w.scale = numeric.NewComplexMatrix(n), make([]complex128, n), make([]complex128, n), make([]float64, n)
		return
	}
	for _, row := range w.a {
		clear(row)
	}
	clear(w.b)
}

// assemble builds the complex MNA system at angular frequency omega in
// the circuit's workspace. Unknown ordering: node voltages 1..N-1 (node 0
// is ground and eliminated), then one current unknown per group-2 element.
func (c *Circuit) assemble(omega float64) {
	nNodes := len(c.nodeName) - 1
	nBranch := 0
	for _, e := range c.elems {
		if e.needsBranch() {
			e.branch = nNodes + nBranch
			nBranch++
		} else {
			e.branch = -1
		}
	}
	c.ws.reset(nNodes + nBranch)
	a, b := c.ws.a, c.ws.b

	// row/col index for a node: node 0 (ground) maps to -1 (dropped).
	ix := func(node int) int { return node - 1 }
	addA := func(r, cIdx int, val complex128) {
		if r < 0 || cIdx < 0 {
			return
		}
		a[r][cIdx] += val
	}
	addB := func(r int, val complex128) {
		if r < 0 {
			return
		}
		b[r] += val
	}

	for _, e := range c.elems {
		switch e.kind {
		case KindResistor:
			g := complex(1/e.value, 0)
			stampAdmittance(addA, ix(e.a), ix(e.b), g)
		case KindCapacitor:
			y := complex(0, omega*e.value)
			stampAdmittance(addA, ix(e.a), ix(e.b), y)
		case KindInductor:
			// Branch equation: V(a) − V(b) − jωL·I = 0; KCL gets ±I.
			br := e.branch
			addA(br, ix(e.a), 1)
			addA(br, ix(e.b), -1)
			addA(br, br, complex(0, -omega*e.value))
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		case KindVSource:
			br := e.branch
			addA(br, ix(e.a), 1)
			addA(br, ix(e.b), -1)
			amp := e.value
			if omega == 0 {
				amp = e.dc
			}
			addB(br, complex(amp, 0))
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		case KindISource:
			amp := e.value
			if omega == 0 {
				amp = e.dc
			}
			// Current flows from a, through the source, into b.
			addB(ix(e.a), complex(-amp, 0))
			addB(ix(e.b), complex(amp, 0))
		case KindVCVS:
			br := e.branch
			// V(a) − V(b) − gain·(V(cp) − V(cn)) = 0
			addA(br, ix(e.a), 1)
			addA(br, ix(e.b), -1)
			addA(br, ix(e.cp), complex(-e.value, 0))
			addA(br, ix(e.cn), complex(e.value, 0))
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		case KindOpAmp:
			br := e.branch
			// Nullator across the inputs: V(cp) − V(cn) = 0.
			addA(br, ix(e.cp), 1)
			addA(br, ix(e.cn), -1)
			// Norator at the output: the branch current flows out of
			// node a (the output), closing to ground.
			addA(ix(e.a), br, 1)
			addA(ix(e.b), br, -1)
		}
	}
}

func stampAdmittance(addA func(r, c int, v complex128), ia, ib int, y complex128) {
	addA(ia, ia, y)
	addA(ib, ib, y)
	addA(ia, ib, -y)
	addA(ib, ia, -y)
}

// Solve counters, resolved once against the process-wide collector. The
// AC count is the pipeline's unit of analog work: every gain, sweep, ED
// search and Monte Carlo sample funnels through here. Circuits running
// on a worker lane redirect to their own collector via Instrument.
var (
	cSolvesDC  = obs.Default.Counter("mna.solves.dc")
	cSolvesAC  = obs.Default.Counter("mna.solves.ac")
	hSolveSize = obs.Default.Histogram("mna.solve.size")
)

// mnaMetrics is one circuit's set of solve handles, resolved once at
// Instrument time so the hot path stays a plain pointer chase.
type mnaMetrics struct {
	solvesDC  *obs.Counter
	solvesAC  *obs.Counter
	solveSize *obs.Histogram
}

// Instrument redirects this circuit's solve metrics (mna.solves.dc,
// mna.solves.ac, mna.solve.size) to col instead of the process-wide
// obs.Default — the hook a sharded run loop uses to attribute analog
// work to the worker lane (child collector) driving the circuit. A nil
// col restores the default. Handles are interned once here, so counting
// a solve is a pointer chase, not a name lookup.
func (c *Circuit) Instrument(col *obs.Collector) {
	if col == nil {
		c.met = nil
		return
	}
	c.met = &mnaMetrics{
		solvesDC:  col.Counter("mna.solves.dc"),
		solvesAC:  col.Counter("mna.solves.ac"),
		solveSize: col.Histogram("mna.solve.size"),
	}
}

// solve runs the analysis at frequency f in hertz (0 is DC) and returns
// the solution vector, which lives in the circuit's workspace until the
// next solve; once the workspace is sized, a solve allocates nothing. It
// fails fast on a recorded construction error, a done bound context, or
// an exhausted solve budget — the hardened-execution entry point for
// analog work.
func (c *Circuit) solve(f float64) ([]complex128, error) {
	if f < 0 {
		return nil, fmt.Errorf("mna: negative frequency %g", f)
	}
	if c.buildErr != nil {
		return nil, fmt.Errorf("mna: circuit %q has a construction error: %w", c.name, c.buildErr)
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return nil, fmt.Errorf("mna: circuit %q: %w", c.name, err)
		}
		if err := chaos.Step(c.ctx, chaos.SiteMNASolve, c.name); err != nil {
			return nil, fmt.Errorf("mna: circuit %q: %w", c.name, err)
		}
	}
	if c.budget > 0 {
		if c.solves >= c.budget {
			return nil, fmt.Errorf("mna: circuit %q: %w", c.name,
				&guard.BudgetError{Resource: "mna-solves", Limit: c.budget})
		}
		c.solves++
	}
	dc, ac, size := cSolvesDC, cSolvesAC, hSolveSize
	if c.met != nil {
		dc, ac, size = c.met.solvesDC, c.met.solvesAC, c.met.solveSize
	}
	if f == 0 {
		dc.Inc()
	} else {
		ac.Inc()
	}
	c.assemble(2 * math.Pi * f)
	w := &c.ws
	size.Observe(int64(len(w.b)))
	if err := numeric.SolveComplexInto(w.a, w.b, w.x, w.scale); err != nil {
		return nil, fmt.Errorf("mna: circuit %q at f=%g Hz: %w", c.name, f, err)
	}
	return w.x, nil
}

// AC performs a phasor analysis at frequency f in hertz. All independent
// sources contribute their AC amplitudes at zero phase.
func (c *Circuit) AC(f float64) (*Solution, error) {
	x, err := c.solve(f)
	if err != nil {
		return nil, err
	}
	return &Solution{circuit: c, freq: f, x: slices.Clone(x)}, nil
}

// DC performs an operating-point analysis: capacitors open, inductors
// short, sources at their DC values.
func (c *Circuit) DC() (*Solution, error) { return c.AC(0) }

// Gain returns the complex voltage transfer V(out)/V(in-source amplitude)
// at frequency f. The circuit must contain exactly one voltage source with
// a nonzero AC amplitude (for f > 0) or a nonzero DC value (for f = 0);
// Gain normalises by it, so the absolute drive level cancels out.
func (c *Circuit) Gain(out string, f float64) (complex128, error) {
	var src *element
	for _, e := range c.elems {
		if e.kind != KindVSource {
			continue
		}
		amp := e.value
		if f == 0 {
			amp = e.dc
		}
		if amp == 0 {
			continue
		}
		if src != nil {
			return 0, fmt.Errorf("mna: circuit %q has multiple active sources; Gain is ambiguous", c.name)
		}
		src = e
	}
	if src == nil {
		return 0, fmt.Errorf("mna: circuit %q has no active voltage source", c.name)
	}
	x, err := c.solve(f)
	if err != nil {
		return 0, err
	}
	amp := src.value
	if f == 0 {
		amp = src.dc
	}
	return c.nodeV(x, out) / complex(amp, 0), nil
}

// GainMag returns |Gain(out, f)|. Neither allocates once the circuit
// has solved at its current size: the node is read from the workspace.
func (c *Circuit) GainMag(out string, f float64) (float64, error) {
	g, err := c.Gain(out, f)
	if err != nil {
		return 0, err
	}
	return cmplx.Abs(g), nil
}

// InputImpedance returns the impedance seen by the named voltage source
// at frequency f: Z = V_source / I_in, where I_in is the current the
// source pushes into the circuit. The source must carry a nonzero
// amplitude at the analysis frequency.
func (c *Circuit) InputImpedance(source string, f float64) (complex128, error) {
	e, ok := c.byName[source]
	if !ok || e.kind != KindVSource {
		return 0, fmt.Errorf("mna: %q is not a voltage source in circuit %q", source, c.name)
	}
	amp := e.value
	if f == 0 {
		amp = e.dc
	}
	if amp == 0 {
		return 0, fmt.Errorf("mna: source %q is inactive at f=%g", source, f)
	}
	x, err := c.solve(f)
	if err != nil {
		return 0, err
	}
	// Branch currents use the SPICE convention (into the + terminal);
	// the current delivered to the circuit is its negation.
	iin := -x[e.branch]
	if iin == 0 {
		return 0, fmt.Errorf("mna: source %q drives no current; input impedance is infinite", source)
	}
	return complex(amp, 0) / iin, nil
}

// Sweep evaluates the complex gain at each frequency in freqs.
func (c *Circuit) Sweep(out string, freqs []float64) ([]complex128, error) {
	res := make([]complex128, len(freqs))
	for i, f := range freqs {
		g, err := c.Gain(out, f)
		if err != nil {
			return nil, err
		}
		res[i] = g
	}
	return res, nil
}
