package main

import (
	"fmt"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/logic"
)

// digitalVariants is how many input variants an atpg-iscas run cycles
// through: one, so that a run repeats it about four times. With c1908
// pinned, one draw of the other four blocks moves a pass's cost by
// about 3%.
const digitalVariants = 1

// digitalCase is one Table 4/5 circuit: a generated ISCAS stand-in, its
// collapsed fault list and the 15 inputs the comparators drive.
type digitalCase struct {
	name    string
	paper   bool // the circuit EXPERIMENTS.md reports
	circuit *logic.Circuit
	faults  []faults.Fault
	binding []string
}

// pinnedCircuit is the block every variant takes at its paper profile
// and binding. It is most of the cost and the heap of both digital
// workloads, and its census cost swings threefold with the comparator
// binding, so a seeded copy would make a run's figures depend on the
// draw rather than on the code.
const pinnedCircuit = "c1908"

// digitalVariant builds the five benchmark circuits of variant k. The
// paper variant, and the pinned circuit in every variant, use the
// published profiles and comparator bindings; every other circuit
// re-seeds the generator and the binding draw. Profiles that share a
// generator seed (c499 and c1355, the latter the NAND expansion of the
// former) keep sharing it.
func digitalVariant(seed int64, k int) ([]digitalCase, error) {
	var out []digitalCase
	for _, name := range iscas.BenchmarkNames {
		p := iscas.Profiles[name]
		paper := paperVariant(seed, k) || name == pinnedCircuit
		if !paper {
			p.Seed = subSeed(seed, k, p.Seed)
		}
		c, err := iscas.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", name, err)
		}
		dc := digitalCase{name: name, paper: paper, circuit: c, faults: faults.Collapse(c)}
		if paper {
			dc.binding = experiments.BoundInputs(c, name)
		} else {
			r := rand.New(rand.NewSource(subSeed(seed, k, int64(len(out)+1))))
			names := c.InputNames()
			for _, j := range r.Perm(len(names))[:experiments.ComparatorCount] {
				dc.binding = append(dc.binding, names[j])
			}
		}
		out = append(out, dc)
	}
	return out, nil
}

// buildDigital builds every variant a run cycles through.
func buildDigital(seed int64, variants int) ([][]digitalCase, error) {
	out := make([][]digitalCase, variants)
	for k := range out {
		v, err := digitalVariant(seed, k)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}
