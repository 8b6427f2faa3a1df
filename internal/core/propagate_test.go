package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adc"
	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/iscas"
	"repro/internal/waveform"
)

// composePropagate is the reference Propagate: it substitutes the
// pattern line by line with Compose, then asks DependsOn and
// BooleanDifference about D on every output.
func composePropagate(p *Propagator, pattern []waveform.Composite) (PropResult, bool, error) {
	if len(pattern) != len(p.mx.Binding) {
		return PropResult{}, false, fmt.Errorf("core: pattern of %d values for %d comparators",
			len(pattern), len(p.mx.Binding))
	}
	m := p.gen.Manager()
	sub := make(map[string]bdd.Ref, len(p.mx.Binding))
	for k, name := range p.mx.Binding {
		switch pattern[k] {
		case waveform.Zero:
			sub[name] = bdd.False
		case waveform.One:
			sub[name] = bdd.True
		case waveform.D:
			sub[name] = p.d
		case waveform.DBar:
			sub[name] = m.Not(p.d)
		}
	}
	var res PropResult
	allDiff := bdd.False
	for _, o := range p.mx.Digital.Outputs() {
		f := p.gen.GoodFunction(o)
		for _, name := range p.mx.Binding {
			if g, ok := sub[name]; ok {
				f = m.Compose(f, name, g)
			}
		}
		if !m.DependsOn(f, DVar) {
			continue
		}
		res.Outputs = append(res.Outputs, p.mx.Digital.Signal(o).Name)
		allDiff = m.Or(allDiff, m.BooleanDifference(f, DVar))
	}
	if len(res.Outputs) == 0 {
		return PropResult{}, false, nil
	}
	assign, ok := m.SatOneConstrained(allDiff, p.mx.FreeInputs())
	if !ok {
		return PropResult{}, false, nil
	}
	vec := make(map[string]bool, len(p.mx.FreeInputs()))
	for _, n := range p.mx.FreeInputs() {
		vec[n] = assign[n]
	}
	res.Vector = vec
	return res, true, nil
}

// composeOutputOBDDs is the reference OutputOBDDs, the same Compose fold.
func composeOutputOBDDs(p *Propagator, pattern []waveform.Composite) []bdd.Ref {
	m := p.gen.Manager()
	var roots []bdd.Ref
	for _, o := range p.mx.Digital.Outputs() {
		f := p.gen.GoodFunction(o)
		for k, name := range p.mx.Binding {
			switch pattern[k] {
			case waveform.Zero:
				f = m.Compose(f, name, bdd.False)
			case waveform.One:
				f = m.Compose(f, name, bdd.True)
			case waveform.D:
				f = m.Compose(f, name, p.d)
			case waveform.DBar:
				f = m.Compose(f, name, m.Not(p.d))
			}
		}
		roots = append(roots, f)
	}
	return roots
}

// checkAgainstCompose runs Propagate and OutputOBDDs and their Compose
// references on the same Propagator, so equal functions are equal Refs.
func checkAgainstCompose(t *testing.T, p *Propagator, pattern []waveform.Composite) {
	t.Helper()
	res, ok, err := p.Propagate(pattern)
	if err != nil {
		t.Fatalf("%v: Propagate: %v", pattern, err)
	}
	wantRes, wantOK, _ := composePropagate(p, pattern)
	if ok != wantOK || !reflect.DeepEqual(res, wantRes) {
		t.Fatalf("%v: Propagate = %v %+v, Compose reference %v %+v", pattern, ok, res, wantOK, wantRes)
	}
	_, roots, err := p.OutputOBDDs(pattern)
	if err != nil {
		t.Fatalf("%v: OutputOBDDs: %v", pattern, err)
	}
	if want := composeOutputOBDDs(p, pattern); !reflect.DeepEqual(roots, want) {
		t.Fatalf("%v: OutputOBDDs roots %v, Compose reference %v", pattern, roots, want)
	}
}

// randomPattern draws n composite values; with constOnly it draws only
// Zero and One.
func randomPattern(r *rand.Rand, n int, constOnly bool) []waveform.Composite {
	out := make([]waveform.Composite, n)
	for i := range out {
		if constOnly {
			out[i] = waveform.Composite(r.Intn(2))
		} else {
			out[i] = waveform.Composite(r.Intn(4))
		}
	}
	return out
}

// TestPropagateMatchesCompose checks the cube-cofactor Propagate and
// OutputOBDDs against the Compose fold: every pattern on the two Figure 3
// lines, then seeded random patterns on c432 with 15 bound lines, mixed
// (several D and D̄ lines at once), all-constant and single-comparator.
func TestPropagateMatchesCompose(t *testing.T) {
	fig3, err := NewPropagator(testMixed(t))
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	for a := waveform.Zero; a <= waveform.DBar; a++ {
		for b := waveform.Zero; b <= waveform.DBar; b++ {
			checkAgainstCompose(t, fig3, []waveform.Composite{a, b})
		}
	}

	dig := iscas.MustBenchmark("c432")
	const comparators = 15
	mx, err := NewMixed(circuits.Chebyshev5(), circuits.ChebyshevOutput,
		adc.NewFlash(comparators, 0, comparators+1), dig, dig.InputNames()[:comparators])
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	p, err := NewPropagator(mx)
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	r := rand.New(rand.NewSource(1))
	composites, propagated := 0, 0
	for i := 0; i < 200; i++ {
		pattern := randomPattern(r, comparators, i%3 == 0)
		for _, v := range pattern {
			if v.IsComposite() {
				composites++
			}
		}
		checkAgainstCompose(t, p, pattern)
		if _, ok, _ := p.Propagate(pattern); ok {
			propagated++
		}
	}
	for k := 1; k <= comparators; k++ {
		checkAgainstCompose(t, p, ComparatorPattern(comparators, k, waveform.D))
		checkAgainstCompose(t, p, ComparatorPattern(comparators, k, waveform.DBar))
	}
	if composites < 300 || propagated == 0 {
		t.Fatalf("random patterns carried %d composite lines and %d propagated: too weak a test", composites, propagated)
	}
}
