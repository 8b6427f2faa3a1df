package main

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/logic"
)

// smallCircuit is g1 = AND(a, b), g2 = OR(g1, c), n = NOT(c); outputs
// g2 and n.
func smallCircuit(t *testing.T) *logic.Circuit {
	t.Helper()
	c := logic.New("small")
	c.AddInput("a")
	c.AddInput("b")
	c.AddInput("c")
	c.AddGate("g1", logic.TypeAnd, "a", "b")
	c.AddGate("g2", logic.TypeOr, "g1", "c")
	c.AddGate("n", logic.TypeNot, "c")
	c.MarkOutput("g2")
	c.MarkOutput("n")
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGateSemantics(t *testing.T) {
	tt := map[gateFn][4]bool{ // inputs 00, 01, 10, 11
		gAnd:  {false, false, false, true},
		gNand: {true, true, true, false},
		gOr:   {false, true, true, true},
		gNor:  {true, false, false, false},
		gXor:  {false, true, true, false},
		gXnor: {true, false, false, true},
	}
	for g, want := range tt {
		for i, w := range want {
			if got := g.eval([]bool{i&2 != 0, i&1 != 0}); got != w {
				t.Errorf("gate %d on %02b = %t, want %t", g, i, got, w)
			}
		}
	}
	if gNot.eval([]bool{true}) || !gBuf.eval([]bool{true}) || gZero.eval(nil) || !gOne.eval(nil) {
		t.Error("unary or constant gate wrong")
	}
	if !gXor.eval([]bool{true, true, true}) {
		t.Error("three-input XOR is not odd parity")
	}
}

func TestScalarEvaluatorHandBuilt(t *testing.T) {
	c := smallCircuit(t)
	nl, err := newNetlist(c)
	if err != nil {
		t.Fatal(err)
	}
	sig := func(name string) int { return int(c.MustSig(name)) }
	// a=1 b=1 c=0: g1=1, g2=1, n=1.
	if got := nl.simulate([]bool{true, true, false}, nil); !equalBools(got, []bool{true, true}) {
		t.Fatalf("good outputs %v, want [true true]", got)
	}
	pats := [][]bool{{true, true, false}}
	fs := []stuck{
		{sig: sig("g1"), consumer: -1, value: false},      // stem s-a-0 flips g2
		{sig: sig("c"), consumer: sig("g2"), value: true}, // branch into g2 s-a-1: g2 already 1
		{sig: sig("a"), consumer: -1, value: false},       // input stem s-a-0 flips g2
		{sig: sig("b"), consumer: sig("g1"), value: true}, // branch already 1
		{sig: sig("c"), consumer: sig("n"), value: true},  // branch into n s-a-1 flips n
		{sig: sig("c"), consumer: -1, value: true},        // stem s-a-1 flips n
		{sig: sig("n"), consumer: -1, value: true},        // n already 1
		{sig: sig("g2"), consumer: -1, value: false},      // output stem flips g2
	}
	want := []bool{true, false, true, false, true, true, false, true}
	got := nl.detected(pats, fs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %+v: detected %t, want %t", fs[i], got[i], want[i])
		}
	}
	if f := fs[0]; !equalBools(nl.simulate(pats[0], &f), []bool{false, true}) {
		t.Error("faulty simulation of g1 s-a-0 is wrong")
	}
}

// TestScalarEvaluatorAgreesWithEngine cross-checks the oracle with the
// engine's fault simulator on a generated c432 and random patterns.
func TestScalarEvaluatorAgreesWithEngine(t *testing.T) {
	c, err := iscas.Generate(iscas.Profiles["c432"])
	if err != nil {
		t.Fatal(err)
	}
	nl, err := newNetlist(c)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	vecs := make([]faults.Vector, 8)
	pats := make([][]bool, len(vecs))
	for i := range vecs {
		vecs[i] = make(faults.Vector, len(c.Inputs()))
		for j := range vecs[i] {
			vecs[i][j] = r.Intn(2) == 1
		}
		pats[i] = vecs[i]
	}
	fl := faults.Collapse(c)
	fs := make([]stuck, len(fl))
	for i, f := range fl {
		fs[i] = stuck{sig: int(f.Signal), consumer: int(f.Consumer), value: f.Value}
	}
	got := nl.detected(pats, fs)
	det := faults.NewSimulator(c).Detect(vecs, fl)
	n := 0
	for i := range fl {
		if got[i] != (det[i] >= 0) {
			t.Errorf("fault %s: oracle %t, engine %t", fl[i].Name(c), got[i], det[i] >= 0)
		}
		if got[i] {
			n++
		}
	}
	if n == 0 || n == len(fl) {
		t.Fatalf("%d of %d faults detected: the cross-check is vacuous", n, len(fl))
	}
}

func TestThermometer(t *testing.T) {
	for _, tc := range []struct {
		bits []bool
		want bool
	}{
		{nil, true},
		{[]bool{false, false}, true},
		{[]bool{true, true, true}, true},
		{[]bool{true, true, false, false}, true},
		{[]bool{false, true}, false},
		{[]bool{true, false, true}, false},
	} {
		if got := thermometer(tc.bits); got != tc.want {
			t.Errorf("thermometer(%v) = %t, want %t", tc.bits, got, tc.want)
		}
	}
}

func TestBoundBits(t *testing.T) {
	nl, err := newNetlist(smallCircuit(t))
	if err != nil {
		t.Fatal(err)
	}
	bits, err := nl.boundBits([]bool{true, false, true}, []string{"c", "a", "b"})
	if err != nil || !equalBools(bits, []bool{true, true, false}) {
		t.Fatalf("boundBits = %v, %v; want [true true false]", bits, err)
	}
	if _, err := nl.boundBits([]bool{true, false, true}, []string{"g1"}); err == nil {
		t.Fatal("binding a gate output is not an error")
	}
}
