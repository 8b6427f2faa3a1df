package faults

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/iscas"
	"repro/internal/logic"
)

// randKernelCircuit builds a random circuit over every gate type with the
// shapes a levelized event-driven simulator can get wrong: constant
// gates, a gate listing one fanin twice, a primary input that is also a
// primary output, and primary outputs that feed further gates.
func randKernelCircuit(r *rand.Rand) *logic.Circuit {
	c := logic.New("kernel")
	var names []string
	nIn := 2 + r.Intn(5)
	for i := 0; i < nIn; i++ {
		names = append(names, fmt.Sprintf("i%d", i))
		c.AddInput(names[i])
	}
	c.AddGate("k0", logic.TypeConst0)
	c.AddGate("k1", logic.TypeConst1)
	names = append(names, "k0", "k1")
	pick := func() string { return names[r.Intn(len(names))] }
	rep := pick()
	c.AddGate("rep", []logic.GateType{logic.TypeAnd, logic.TypeOr, logic.TypeXor, logic.TypeXnor}[r.Intn(4)], rep, rep)
	names = append(names, "rep")
	types := []logic.GateType{logic.TypeAnd, logic.TypeNand, logic.TypeOr, logic.TypeNor,
		logic.TypeXor, logic.TypeXnor, logic.TypeNot, logic.TypeBuf}
	nG := 5 + r.Intn(20)
	for g := 0; g < nG; g++ {
		ty := types[r.Intn(len(types))]
		fanins := []string{pick()}
		if ty != logic.TypeNot && ty != logic.TypeBuf {
			// Drawn with replacement: repeated fanins happen here too.
			for k := 1 + r.Intn(3); k > 0; k-- {
				fanins = append(fanins, pick())
			}
		}
		name := fmt.Sprintf("g%d", g)
		c.AddGate(name, ty, fanins...)
		names = append(names, name)
	}
	c.MarkOutput("i0")
	c.MarkOutput(names[len(names)-1])
	for _, n := range names[len(names)-nG:] {
		if r.Intn(4) == 0 {
			c.MarkOutput(n) // often one that feeds later gates
		}
	}
	return c.MustFreeze()
}

func randVectors(r *rand.Rand, c *logic.Circuit, n int) []Vector {
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = make(Vector, len(c.Inputs()))
		for j := range vs[i] {
			vs[i][j] = r.Intn(2) == 1
		}
	}
	return vs
}

// checkKernelAgainstReference runs every fault of All(c) through the
// PPSFP kernel and through the full re-simulation reference
// (logic.SimWordsFaulty), batch by batch: the faulty primary-output
// words must match bit for bit, and Detect's first-detecting index must
// be the one the reference implies.
func checkKernelAgainstReference(t *testing.T, c *logic.Circuit, vectors []Vector) {
	t.Helper()
	fs := All(c)
	want := make([]int, len(fs))
	for i := range want {
		want[i] = -1
	}
	got := make([]uint64, len(c.Outputs()))
	sim := NewSimulator(c)
	for base := 0; base < len(vectors); base += 64 {
		mask := sim.load(vectors, base)
		good := c.OutputWords(c.SimWords(sim.words))
		for fi, f := range fs {
			bad := c.OutputWords(c.SimWordsFaulty(sim.words, f.Override()))
			diff, _ := sim.k.Simulate(f.Override(), got)
			var wantDiff uint64
			for o := range bad {
				if got[o] != bad[o] {
					t.Fatalf("%s, batch at %d, output %s: kernel %016x, reference %016x",
						f.Name(c), base, c.Signal(c.Outputs()[o]).Name, got[o], bad[o])
				}
				wantDiff |= good[o] ^ bad[o]
			}
			if diff != wantDiff {
				t.Fatalf("%s, batch at %d: kernel diff %016x, reference %016x", f.Name(c), base, diff, wantDiff)
			}
			if d := wantDiff & mask; d != 0 && want[fi] < 0 {
				for bit := 0; ; bit++ {
					if d&(1<<uint(bit)) != 0 {
						want[fi] = base + bit
						break
					}
				}
			}
		}
	}
	det := NewSimulator(c).Detect(vectors, fs)
	for i := range fs {
		if det[i] != want[i] {
			t.Errorf("%s: Detect says first detected by vector %d, reference %d", fs[i].Name(c), det[i], want[i])
		}
	}
}

func TestFaultSimKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		c := randKernelCircuit(r)
		for _, n := range []int{1, 63, 64, 65, 130} {
			t.Run(fmt.Sprintf("circuit%d/%dvectors", trial, n), func(t *testing.T) {
				checkKernelAgainstReference(t, c, randVectors(r, c, n))
			})
		}
	}
}

func TestFaultSimKernelMatchesReferenceISCAS(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, name := range []string{"c432", "c880"} {
		t.Run(name, func(t *testing.T) {
			c := iscas.MustBenchmark(name)
			checkKernelAgainstReference(t, c, randVectors(r, c, 256))
		})
	}
}

func TestSimEvalsDeterministic(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := Collapse(c)
	vectors := randVectors(rand.New(rand.NewSource(3)), c, 100)
	run := func() int64 {
		before := cSimEvals.Load()
		NewSimulator(c).Detect(vectors, fs)
		return cSimEvals.Load() - before
	}
	first, second := run(), run()
	if first <= 0 || first != second {
		t.Errorf("faults.sim.evals over two identical runs = %d, %d; want equal and positive", first, second)
	}
}
