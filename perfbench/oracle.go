package main

import (
	"fmt"

	"repro/internal/logic"
)

// The oracle re-checks engine outputs with a naive scalar gate
// evaluator. It reads only the circuit's structure (gate types, fanin
// lists, inputs, outputs) and shares no code with logic's word-parallel
// simulator, the faults package or the BDD package: it derives its own
// evaluation order and evaluates one pattern at a time with plain
// booleans.

// gateFn is the oracle's own gate semantics.
type gateFn int

const (
	gInput gateFn = iota
	gAnd
	gNand
	gOr
	gNor
	gXor
	gXnor
	gNot
	gBuf
	gZero
	gOne
)

// netlist is the oracle's copy of a circuit.
type netlist struct {
	fn      []gateFn
	fanin   [][]int
	inputs  []int
	outputs []int
	order   []int // gate signals, every fanin before its consumer
	inIdx   map[string]int
}

// stuck is a single stuck-at fault in the oracle's terms: the line is
// signal sig's stem when consumer < 0, else its branch into consumer.
type stuck struct {
	sig, consumer int
	value         bool
}

func gateOf(t logic.GateType) (gateFn, error) {
	switch t {
	case logic.TypeInput:
		return gInput, nil
	case logic.TypeAnd:
		return gAnd, nil
	case logic.TypeNand:
		return gNand, nil
	case logic.TypeOr:
		return gOr, nil
	case logic.TypeNor:
		return gNor, nil
	case logic.TypeXor:
		return gXor, nil
	case logic.TypeXnor:
		return gXnor, nil
	case logic.TypeNot:
		return gNot, nil
	case logic.TypeBuf:
		return gBuf, nil
	case logic.TypeConst0:
		return gZero, nil
	case logic.TypeConst1:
		return gOne, nil
	}
	return 0, fmt.Errorf("oracle: unknown gate type %v", t)
}

// newNetlist copies c's structure and orders its gates by depth-first
// search from the outputs and every other signal.
func newNetlist(c *logic.Circuit) (*netlist, error) {
	n := c.NumSignals()
	nl := &netlist{fn: make([]gateFn, n), fanin: make([][]int, n), inIdx: map[string]int{}}
	for id := 0; id < n; id++ {
		s := c.Signal(logic.SigID(id))
		g, err := gateOf(s.Type)
		if err != nil {
			return nil, err
		}
		nl.fn[id] = g
		for _, f := range s.Fanin {
			nl.fanin[id] = append(nl.fanin[id], int(f))
		}
	}
	for i, id := range c.Inputs() {
		nl.inputs = append(nl.inputs, int(id))
		nl.inIdx[c.Signal(id).Name] = i
	}
	for _, id := range c.Outputs() {
		nl.outputs = append(nl.outputs, int(id))
	}
	const (
		unseen = iota
		active
		done
	)
	mark := make([]int, n)
	var visit func(id int) error
	visit = func(id int) error {
		switch mark[id] {
		case done:
			return nil
		case active:
			return fmt.Errorf("oracle: combinational loop through signal %d", id)
		}
		mark[id] = active
		for _, f := range nl.fanin[id] {
			if err := visit(f); err != nil {
				return err
			}
		}
		mark[id] = done
		if nl.fn[id] != gInput {
			nl.order = append(nl.order, id)
		}
		return nil
	}
	for id := 0; id < n; id++ {
		if err := visit(id); err != nil {
			return nil, err
		}
	}
	return nl, nil
}

func (g gateFn) eval(in []bool) bool {
	switch g {
	case gZero:
		return false
	case gOne:
		return true
	case gNot:
		return !in[0]
	case gBuf:
		return in[0]
	case gAnd, gNand:
		v := true
		for _, x := range in {
			v = v && x
		}
		return v != (g == gNand)
	case gOr, gNor:
		v := false
		for _, x := range in {
			v = v || x
		}
		return v != (g == gNor)
	default: // gXor, gXnor
		v := false
		for _, x := range in {
			v = v != x
		}
		return v != (g == gXnor)
	}
}

// simulate evaluates one input pattern (in circuit input order) with an
// optional stuck-at fault and returns the primary output values.
func (nl *netlist) simulate(pattern []bool, f *stuck) []bool {
	val := make([]bool, len(nl.fn))
	for i, id := range nl.inputs {
		val[id] = pattern[i]
	}
	nl.evaluate(val, f, 0)
	return nl.outputValues(val)
}

// evaluate computes the gates order[from:] into val, whose inputs (and
// every gate before from) are already set, under an optional fault.
func (nl *netlist) evaluate(val []bool, f *stuck, from int) {
	if f != nil && f.consumer < 0 && nl.fn[f.sig] == gInput {
		val[f.sig] = f.value
	}
	var in []bool
	for _, id := range nl.order[from:] {
		in = in[:0]
		for _, src := range nl.fanin[id] {
			v := val[src]
			if f != nil && f.consumer == id && f.sig == src {
				v = f.value
			}
			in = append(in, v)
		}
		val[id] = nl.fn[id].eval(in)
		if f != nil && f.consumer < 0 && f.sig == id {
			val[id] = f.value
		}
	}
}

func (nl *netlist) outputValues(val []bool) []bool {
	out := make([]bool, len(nl.outputs))
	for i, id := range nl.outputs {
		out[i] = val[id]
	}
	return out
}

// detected reports, per fault, whether any pattern tells the faulty
// circuit from the good one at a primary output. A fault cannot change
// a gate evaluated before its site, so each faulty evaluation starts
// from the good values and re-evaluates the gates from the site on.
func (nl *netlist) detected(patterns [][]bool, fs []stuck) []bool {
	pos := make([]int, len(nl.fn))
	for i, id := range nl.order {
		pos[id] = i
	}
	good := make([][]bool, len(patterns))
	for p, pat := range patterns {
		good[p] = make([]bool, len(nl.fn))
		for i, id := range nl.inputs {
			good[p][id] = pat[i]
		}
		nl.evaluate(good[p], nil, 0)
	}
	val := make([]bool, len(nl.fn))
	out := make([]bool, len(fs))
	for i := range fs {
		f := &fs[i]
		from := 0
		switch {
		case f.consumer >= 0:
			from = pos[f.consumer]
		case nl.fn[f.sig] != gInput:
			from = pos[f.sig]
		}
		for p := range patterns {
			copy(val, good[p])
			nl.evaluate(val, f, from)
			if differs(val, good[p], nl.outputs) {
				out[i] = true
				break
			}
		}
	}
	return out
}

func differs(a, b []bool, at []int) bool {
	for _, id := range at {
		if a[id] != b[id] {
			return true
		}
	}
	return false
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// thermometer reports whether bits (comparator 1 first) form a
// thermometer code: every asserted comparator sits below every
// deasserted one.
func thermometer(bits []bool) bool {
	seenZero := false
	for _, b := range bits {
		if !b {
			seenZero = true
		} else if seenZero {
			return false
		}
	}
	return true
}

// boundBits extracts the comparator-driven inputs of a pattern, in
// comparator order.
func (nl *netlist) boundBits(pattern []bool, binding []string) ([]bool, error) {
	bits := make([]bool, len(binding))
	for k, name := range binding {
		i, ok := nl.inIdx[name]
		if !ok {
			return nil, fmt.Errorf("oracle: bound line %q is not an input", name)
		}
		bits[k] = pattern[i]
	}
	return bits, nil
}
