package core

import (
	"testing"

	"repro/internal/adc"
	"repro/internal/analog"
	"repro/internal/circuits"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/mna"
	"repro/internal/waveform"
)

// testMixed assembles the Figure 4 vehicle: the Tow-Thomas band-pass
// feeding a 2-comparator flash whose outputs drive the l0/l2 lines of the
// Figure 3 digital circuit.
func testMixed(t testing.TB) *Mixed {
	t.Helper()
	mx, err := NewMixed(circuits.BandPass2(), circuits.BandPassOutput,
		adc.NewFlash(2, 0, 3), iscas.Fig3(), iscas.Fig3ConstrainedLines())
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	return mx
}

func TestNewMixedValidation(t *testing.T) {
	ana := circuits.BandPass2()
	dig := iscas.Fig3()
	flash := adc.NewFlash(2, 0, 3)
	if _, err := NewMixed(ana, "nope", flash, dig, []string{"l0", "l2"}); err == nil {
		t.Error("unknown analog node must fail")
	}
	if _, err := NewMixed(ana, circuits.BandPassOutput, flash, dig, []string{"l0"}); err == nil {
		t.Error("binding/comparator count mismatch must fail")
	}
	if _, err := NewMixed(ana, circuits.BandPassOutput, flash, dig, []string{"l0", "zz"}); err == nil {
		t.Error("unknown bound line must fail")
	}
	if _, err := NewMixed(ana, circuits.BandPassOutput, flash, dig, []string{"l0", "l0"}); err == nil {
		t.Error("double binding must fail")
	}
	raw := logic.New("raw")
	raw.AddInput("l0")
	raw.AddInput("l2")
	raw.AddGate("y", logic.TypeAnd, "l0", "l2")
	raw.MarkOutput("y")
	if _, err := NewMixed(ana, circuits.BandPassOutput, flash, raw, []string{"l0", "l2"}); err == nil {
		t.Error("unfrozen digital circuit must fail")
	}
}

func TestFreeInputsAndBinding(t *testing.T) {
	mx := testMixed(t)
	free := mx.FreeInputs()
	if len(free) != 2 || free[0] != "l1" || free[1] != "l4" {
		t.Errorf("free inputs = %v, want [l1 l4]", free)
	}
	if mx.BoundComparator("l0") != 1 || mx.BoundComparator("l2") != 2 {
		t.Error("binding order wrong")
	}
	if mx.BoundComparator("l1") != 0 {
		t.Error("free input must report comparator 0")
	}
}

func TestPropagatorRejectsReservedName(t *testing.T) {
	ana := mna.New("a")
	ana.AddV("Vin", "in", "0", 1, 1)
	ana.AddR("R", "in", "out", 1e3)
	dig := logic.New("d")
	dig.AddInput("D") // collides with the reserved composite variable
	dig.AddInput("x")
	dig.AddGate("y", logic.TypeAnd, "D", "x")
	dig.MarkOutput("y")
	dig.MustFreeze()
	mx, err := NewMixed(ana, "out", adc.NewFlash(1, 0, 1), dig, []string{"x"})
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	if _, err := NewPropagator(mx); err == nil {
		t.Error("reserved D name must be rejected")
	}
}

func TestPropagateThroughFig3(t *testing.T) {
	mx := testMixed(t)
	p, err := NewPropagator(mx)
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	// Comparator 1 toggling (l0 = D, l2 = 0): Vo1 = XOR(OR(D,0), l1)
	// always observes D.
	res, ok, err := p.Propagate(ComparatorPattern(2, 1, waveform.D))
	if err != nil || !ok {
		t.Fatalf("comparator 1: ok=%v err=%v", ok, err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0] != "Vo1" {
		t.Errorf("outputs = %v, want [Vo1]", res.Outputs)
	}
	// Comparator 2 toggling (l0 = 1, l2 = D): the OR absorbs D, so only
	// Vo2 = NAND(D, l4) observes it, and the vector must set l4 = 1.
	res, ok, err = p.Propagate(ComparatorPattern(2, 2, waveform.D))
	if err != nil || !ok {
		t.Fatalf("comparator 2: ok=%v err=%v", ok, err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0] != "Vo2" {
		t.Errorf("outputs = %v, want [Vo2]", res.Outputs)
	}
	if !res.Vector["l4"] {
		t.Errorf("vector %v must enable l4", res.Vector)
	}
}

func TestPropagateFig6Scenario(t *testing.T) {
	// The Figure 6 demonstration: l0 = 0, l2 = D̄. Vo1 observes the
	// composite value unconditionally; Vo2 = NAND(D̄, l4) observes it
	// when l4 = 1 — the paper's "set l1=1 → Vo1; set l1=1 and l4=1 →
	// both outputs" narrative on our realization of the netlist.
	mx := testMixed(t)
	p, err := NewPropagator(mx)
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	pattern := []waveform.Composite{waveform.Zero, waveform.DBar}
	res, ok, err := p.Propagate(pattern)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(res.Outputs) != 2 {
		t.Errorf("outputs = %v, want both", res.Outputs)
	}
	names, roots, err := p.OutputOBDDs(pattern)
	if err != nil {
		t.Fatalf("OutputOBDDs: %v", err)
	}
	m := p.Generator().Manager()
	for i, n := range names {
		if !m.DependsOn(roots[i], DVar) {
			t.Errorf("output %s OBDD must contain the D node", n)
		}
	}
}

func TestPropagateBlockedPattern(t *testing.T) {
	mx := testMixed(t)
	p, err := NewPropagator(mx)
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	// l0 = 1 absorbs l2's D in the OR; l2 = D with Vo2's NAND needing
	// l4... still propagatable via Vo2. Block everything by making the
	// target comparator non-composite: all-constant pattern.
	if _, ok, err := p.Propagate([]waveform.Composite{waveform.One, waveform.One}); err != nil {
		t.Fatalf("Propagate: %v", err)
	} else if ok {
		t.Error("constant pattern must not propagate anything")
	}
	if _, _, err := p.Propagate([]waveform.Composite{waveform.One}); err == nil {
		t.Error("wrong pattern length must error")
	}
}

func TestComparatorPattern(t *testing.T) {
	pat := ComparatorPattern(5, 3, waveform.D)
	want := []waveform.Composite{waveform.One, waveform.One, waveform.D, waveform.Zero, waveform.Zero}
	for i := range want {
		if pat[i] != want[i] {
			t.Errorf("pattern[%d] = %v, want %v", i, pat[i], want[i])
		}
	}
}

func TestDigitalInputsFor(t *testing.T) {
	// Divider with gain 1/2 feeding a 2-comparator flash (thresholds 1, 2).
	ana := mna.New("div")
	ana.AddV("Vin", "in", "0", 1, 1)
	ana.AddR("R1", "in", "out", 1e3)
	ana.AddR("R2", "out", "0", 1e3)
	mx, err := NewMixed(ana, "out", adc.NewFlash(2, 0, 3), iscas.Fig3(), iscas.Fig3ConstrainedLines())
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	// vin = 3 → analog out 1.5 → comparator 1 high, comparator 2 low.
	in, err := mx.DigitalInputsFor(3, map[string]bool{"l1": true})
	if err != nil {
		t.Fatalf("DigitalInputsFor: %v", err)
	}
	if !in["l0"] || in["l2"] {
		t.Errorf("bound inputs = l0:%v l2:%v, want 1,0", in["l0"], in["l2"])
	}
	if !in["l1"] || in["l4"] {
		t.Errorf("free inputs = %v, want l1=1 l4=0", in)
	}
}

func TestPlanActivationBandPassGain(t *testing.T) {
	mx := testMixed(t)
	// Rd deviation seen through the center gain A1: perturbing Rd by
	// +10% raises the center gain; an amplitude exists that separates
	// good and faulty responses at comparator 1.
	a1 := analog.MaxGain{Label: "A1", Out: circuits.BandPassOutput, Lo: 10, Hi: 100e3}
	act, ok, err := mx.PlanActivation("Rd", 0.10, a1, UpperBound, 1)
	if err != nil {
		t.Fatalf("PlanActivation: %v", err)
	}
	if !ok {
		t.Fatal("activation must be possible")
	}
	if act.Stim.Kind != waveform.Sine {
		t.Error("gain activation must use a sine")
	}
	// Upper bound: faulty gain larger → faulty response above Vref,
	// good below → good=0/faulty=1 = D̄.
	if got := act.Pattern[0]; got != waveform.DBar {
		t.Errorf("target composite = %v, want D̄", got)
	}
	// Replay: the activation behaves as planned on the simulator.
	good, faulty, v, err := mx.VerifyActivation("Rd", 0.10, act)
	if err != nil {
		t.Fatalf("VerifyActivation: %v", err)
	}
	if v != waveform.DBar {
		t.Errorf("replayed composite = %v (good=%g faulty=%g)", v, good, faulty)
	}
	// Lower bound produces the opposite polarity.
	act2, ok, err := mx.PlanActivation("Rd", 0.10, a1, LowerBound, 1)
	if err != nil || !ok {
		t.Fatalf("lower bound: ok=%v err=%v", ok, err)
	}
	if act2.Pattern[0] != waveform.D {
		t.Errorf("lower-bound composite = %v, want D", act2.Pattern[0])
	}
}

func TestPlanActivationBlindParameter(t *testing.T) {
	mx := testMixed(t)
	// A band-pass blocks DC entirely: a DC-gain activation has zero
	// response in both circuits, so no comparator can separate them and
	// the planner must report not-possible rather than invent a stimulus.
	dc := analog.DCGain{Label: "Adc", Out: circuits.BandPassOutput}
	_, ok, err := mx.PlanActivation("Rd", 0.10, dc, UpperBound, 1)
	if err != nil {
		t.Fatalf("PlanActivation: %v", err)
	}
	if ok {
		t.Error("DC activation through a band-pass must fail")
	}
}

func TestPlanActivationSeesOffPeakShift(t *testing.T) {
	mx := testMixed(t)
	// R1 shifts the center frequency; even though the peak *gain* is
	// R1-invariant, the response at the nominal f0 moves, so the
	// comparator-based activation legitimately observes R1 through the
	// A1 stimulus frequency. This is the physical behaviour the paper's
	// Table 1 exploits for the frequency parameters.
	a1 := analog.MaxGain{Label: "A1", Out: circuits.BandPassOutput, Lo: 10, Hi: 100e3}
	act, ok, err := mx.PlanActivation("R1", 0.10, a1, UpperBound, 1)
	if err != nil {
		t.Fatalf("PlanActivation: %v", err)
	}
	if !ok {
		t.Fatal("off-peak shift must be observable")
	}
	if !act.Pattern[0].IsComposite() {
		t.Error("target comparator must carry a composite value")
	}
}

func TestTestAnalogElementFullFlow(t *testing.T) {
	mx := testMixed(t)
	p, err := NewPropagator(mx)
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	params := []analog.Parameter{
		analog.MaxGain{Label: "A1", Out: circuits.BandPassOutput, Lo: 10, Hi: 100e3},
		analog.ACGain{Label: "A2", Out: circuits.BandPassOutput, Freq: 10e3},
	}
	matrix, err := analog.BuildMatrix(mx.Analog, []string{"Rd", "Rg", "R1"}, params,
		analog.EDOptions{Tol: 0.05, ElemTol: 0, MaxDev: 20, Step: 1e-4})
	if err != nil {
		t.Fatalf("BuildMatrix: %v", err)
	}
	for _, elem := range []string{"Rd", "Rg", "R1"} {
		for _, bound := range []Bound{UpperBound, LowerBound} {
			res, err := mx.TestAnalogElement(p, matrix, elem, bound)
			if err != nil {
				t.Fatalf("TestAnalogElement(%s, %v): %v", elem, bound, err)
			}
			if !res.Testable {
				t.Errorf("%s %v bound: untestable (%s)", elem, bound, res.Reason)
				continue
			}
			if res.Param == "" || len(res.Prop.Outputs) == 0 {
				t.Errorf("%s: incomplete verdict %+v", elem, res)
			}
		}
	}
}

func TestCensusPropagationFig3(t *testing.T) {
	mx := testMixed(t)
	p, err := NewPropagator(mx)
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	census, err := mx.CensusPropagation(p)
	if err != nil {
		t.Fatalf("CensusPropagation: %v", err)
	}
	// Both comparators propagate in both directions through Fig 3.
	if len(census.BlockedLow) != 0 || len(census.BlockedHigh) != 0 {
		t.Errorf("blocked = %v / %v, want none", census.BlockedLow, census.BlockedHigh)
	}
	if len(census.AllowedEither) != 2 {
		t.Errorf("allowed = %v, want both comparators", census.AllowedEither)
	}
}

func TestConversionCoverageRestriction(t *testing.T) {
	mx := testMixed(t)
	opt := adc.DefaultEDOptions()
	full := mx.ConversionCoverage(nil, opt)
	if len(full) != mx.Conv.NumResistors() {
		t.Fatalf("coverage size = %d", len(full))
	}
	census := &PropagationCensus{AllowedEither: map[int]bool{1: true}}
	restricted := mx.ConversionCoverage(census, opt)
	for i := range full {
		if restricted[i] < full[i] {
			t.Errorf("R%d: restriction improved coverage (%g < %g)", i+1, restricted[i], full[i])
		}
	}
	best := mx.BestConversionComparators(census, opt)
	for i, k := range best {
		if k != 0 && k != 1 {
			t.Errorf("R%d best comparator = %d, want 1 or untestable", i+1, k)
		}
	}
}

func TestMinFinite(t *testing.T) {
	if got := MinFinite([]float64{3, 1, 2}); got != 1 {
		t.Errorf("MinFinite = %g", got)
	}
}

// TestPropagateNodeCountRepeats pins down that Propagate composes in a
// fixed order: the output functions are canonical in any order, but the
// intermediate nodes are not, so five fresh Propagators running the same
// census must end with the same arena size.
func TestPropagateNodeCountRepeats(t *testing.T) {
	dig := iscas.MustBenchmark("c432")
	const comparators = 15
	binding := dig.InputNames()[:comparators]
	mx, err := NewMixed(circuits.Chebyshev5(), circuits.ChebyshevOutput,
		adc.NewFlash(comparators, 0, comparators+1), dig, binding)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	want := -1
	for run := 0; run < 5; run++ {
		p, err := NewPropagator(mx)
		if err != nil {
			t.Fatalf("NewPropagator: %v", err)
		}
		if _, err := mx.CensusPropagation(p); err != nil {
			t.Fatalf("CensusPropagation: %v", err)
		}
		got := p.Generator().Manager().Size()
		if want < 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: census left %d nodes, run 0 left %d", run, got, want)
		}
	}
}
