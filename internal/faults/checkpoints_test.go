package faults

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

func TestCheckpointsOfAdder(t *testing.T) {
	c := adder(t)
	cps := Checkpoints(c)
	// 3 PIs + 4 fanout-2 stems (a, b, cin, axb) → (3 + 8)·2 = 22 faults.
	if len(cps) != 22 {
		t.Errorf("checkpoints = %d, want 22", len(cps))
	}
	// All are PI stems or branches — never internal stems.
	for _, f := range cps {
		s := c.Signal(f.Signal)
		if f.Consumer < 0 && s.Type != logic.TypeInput {
			t.Errorf("internal stem %s in checkpoint list", f.Name(c))
		}
	}
}

// checkpointSubset returns the exhaustive vector set of c, the vectors
// of it that are the first to detect some checkpoint fault, and whether
// every checkpoint fault is detected at all.
func checkpointSubset(sim *Simulator, c *logic.Circuit) (vectors, subset []Vector, allDetected bool) {
	vectors = exhaustiveVectors(len(c.Inputs()))
	keep := map[int]bool{}
	allDetected = true
	for _, d := range sim.Detect(vectors, Checkpoints(c)) {
		if d >= 0 {
			keep[d] = true
		} else {
			allDetected = false
		}
	}
	for i := range vectors {
		if keep[i] {
			subset = append(subset, vectors[i])
		}
	}
	return vectors, subset, allDetected
}

// The checkpoint theorem: for AND/OR/NAND/NOR/NOT circuits, a test set
// that detects every checkpoint fault detects every single stuck-at
// fault. The implication is applied only where its premise holds, i.e.
// where the exhaustive set detects every checkpoint fault; circuits with
// a redundant checkpoint fault are TestCheckpointTheoremNeedsEveryCheckpoint's
// subject.
func TestCheckpointTheoremOnAndOrCircuits(t *testing.T) {
	applied := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randObservableNonXorCircuit(r)
		sim := NewSimulator(c)
		_, subset, allDetected := checkpointSubset(sim, c)
		if !allDetected {
			return true
		}
		applied++
		for _, d := range sim.Detect(subset, Collapse(c)) {
			if d < 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if applied == 0 {
		t.Error("no generated circuit had every checkpoint fault detectable; the property was never applied")
	}
}

// TestCheckpointTheoremNeedsEveryCheckpoint pins down the theorem's
// premise on a redundant circuit. h = AND(NOR(b, c), c) is constantly 0,
// which makes several checkpoint faults (both polarities on b, among
// others) undetectable. The vectors that detect every detectable
// checkpoint fault then miss g s-a-1, which only b = c = 1 detects.
func TestCheckpointTheoremNeedsEveryCheckpoint(t *testing.T) {
	c := logic.New("redundant")
	c.AddInput("b")
	c.AddInput("c")
	c.AddGate("g", logic.TypeNor, "b", "c")
	c.AddGate("h", logic.TypeAnd, "g", "c")
	c.AddGate("y1", logic.TypeNand, "b", "h")
	c.AddGate("y2", logic.TypeOr, "c", "h")
	c.MarkOutput("y1")
	c.MarkOutput("y2")
	c.MustFreeze()
	sim := NewSimulator(c)
	vectors, subset, allDetected := checkpointSubset(sim, c)
	if allDetected {
		t.Fatal("the circuit must have an undetectable checkpoint fault")
	}
	gSA1 := Fault{Signal: c.MustSig("g"), Consumer: -1, Value: true}
	if d := sim.Detect(vectors, []Fault{gSA1})[0]; d < 0 || vectors[d].String() != "11" {
		t.Fatalf("g s-a-1: exhaustive set detects it first at %d, want vector 11", d)
	}
	if d := sim.Detect(subset, []Fault{gSA1})[0]; d >= 0 {
		t.Errorf("checkpoint vectors %v detect g s-a-1; the redundant circuit no longer shows the limitation", subset)
	}
}

func TestCheckpointsSmallerThanCollapse(t *testing.T) {
	c := adder(t)
	if len(Checkpoints(c)) >= len(All(c)) {
		t.Error("checkpoint list must be smaller than the raw universe")
	}
}

// randNonXorCircuit builds a random AND/OR/NAND/NOR/NOT circuit.
func randNonXorCircuit(r *rand.Rand) *logic.Circuit {
	c := logic.New("nx")
	nIn := 3 + r.Intn(5)
	var names []string
	for i := 0; i < nIn; i++ {
		n := "i" + strings.Repeat("i", i)
		c.AddInput(n)
		names = append(names, n)
	}
	types := []logic.GateType{logic.TypeAnd, logic.TypeNand, logic.TypeOr, logic.TypeNor, logic.TypeNot}
	nG := 4 + r.Intn(12)
	for g := 0; g < nG; g++ {
		ty := types[r.Intn(len(types))]
		var fanins []string
		if ty == logic.TypeNot {
			fanins = []string{names[r.Intn(len(names))]}
		} else {
			a, b := r.Intn(len(names)), r.Intn(len(names))
			for b == a {
				b = r.Intn(len(names))
			}
			fanins = []string{names[a], names[b]}
		}
		gn := "g" + strings.Repeat("g", g)
		c.AddGate(gn, ty, fanins...)
		names = append(names, gn)
	}
	c.MarkOutput(names[len(names)-1])
	c.MarkOutput(names[len(names)-2])
	return c.MustFreeze()
}

// randObservableNonXorCircuit builds a random AND/OR/NAND/NOR/NOT circuit
// with every primary input used and every signal without a consumer
// marked as an output, so no fault is undetectable merely because its
// logic is unobserved.
func randObservableNonXorCircuit(r *rand.Rand) *logic.Circuit {
	c := logic.New("obs")
	var names []string
	used := map[string]bool{}
	nIn := 3 + r.Intn(5)
	for i := 0; i < nIn; i++ {
		n := "i" + strings.Repeat("i", i)
		c.AddInput(n)
		names = append(names, n)
	}
	// pick prefers, half the time, a signal nothing consumes yet.
	pick := func() string {
		var unused []string
		for _, n := range names {
			if !used[n] {
				unused = append(unused, n)
			}
		}
		if len(unused) > 0 && r.Intn(2) == 0 {
			return unused[r.Intn(len(unused))]
		}
		return names[r.Intn(len(names))]
	}
	types := []logic.GateType{logic.TypeAnd, logic.TypeNand, logic.TypeOr, logic.TypeNor, logic.TypeNot}
	nG := 4 + r.Intn(12)
	for g := 0; g < nG; g++ {
		ty := types[r.Intn(len(types))]
		fanins := []string{pick()}
		if ty != logic.TypeNot {
			b := pick()
			for b == fanins[0] {
				b = names[r.Intn(len(names))]
			}
			fanins = append(fanins, b)
		}
		for _, f := range fanins {
			used[f] = true
		}
		gn := "g" + strings.Repeat("g", g)
		c.AddGate(gn, ty, fanins...)
		names = append(names, gn)
	}
	for _, n := range names {
		if !used[n] {
			c.MarkOutput(n)
		}
	}
	return c.MustFreeze()
}
