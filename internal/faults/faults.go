// Package faults implements the single stuck-at fault model over gate-
// level circuits: fault-universe enumeration (stems and fanout branches),
// structural equivalence collapsing, and parallel-pattern single-fault
// (PPSFP) fault simulation with fault dropping.
//
// The paper's digital experiments count "uncollapsed" faults (two per
// line, as in Example 2's 18 faults) and "collapsed" faults (Table 4);
// both views are provided here.
package faults

import (
	"fmt"

	"repro/internal/logic"
)

// Fault is a single stuck-at fault on a line. Consumer == -1 addresses the
// signal's stem; otherwise the fault sits on the branch feeding that
// consumer gate.
type Fault struct {
	Signal   logic.SigID
	Consumer logic.SigID // -1 for stem
	Value    bool        // stuck-at value
}

// Override converts the fault to a simulation override.
func (f Fault) Override() logic.Override {
	return logic.Override{Signal: f.Signal, Consumer: f.Consumer, Value: f.Value}
}

// Name renders the fault in the paper's "l3 s-a-0" style, with branch
// faults shown as "stem->consumer s-a-v".
func (f Fault) Name(c *logic.Circuit) string {
	v := 0
	if f.Value {
		v = 1
	}
	if f.Consumer < 0 {
		return fmt.Sprintf("%s s-a-%d", c.Signal(f.Signal).Name, v)
	}
	return fmt.Sprintf("%s->%s s-a-%d", c.Signal(f.Signal).Name, c.Signal(f.Consumer).Name, v)
}

// line is a fault site: a stem or a fanout branch.
type line struct {
	sig      logic.SigID
	consumer logic.SigID // -1 for stem
}

// lines enumerates every fault site of the circuit: one stem per signal,
// plus one branch per consumer for signals with fanout greater than one.
func lines(c *logic.Circuit) []line {
	var out []line
	for id := 0; id < c.NumSignals(); id++ {
		sid := logic.SigID(id)
		out = append(out, line{sig: sid, consumer: -1})
		s := c.Signal(sid)
		if len(s.Fanout) > 1 {
			for _, g := range s.Fanout {
				out = append(out, line{sig: sid, consumer: g})
			}
		}
	}
	return out
}

// All returns the uncollapsed single stuck-at fault universe: both
// polarities on every stem and every fanout branch.
func All(c *logic.Circuit) []Fault {
	ls := lines(c)
	out := make([]Fault, 0, 2*len(ls))
	for _, l := range ls {
		out = append(out,
			Fault{Signal: l.sig, Consumer: l.consumer, Value: false},
			Fault{Signal: l.sig, Consumer: l.consumer, Value: true})
	}
	return out
}

// Stems returns both polarities on every signal stem only (no fanout-
// branch faults) — the per-named-line universe used for the paper's small
// Example 2, which counts two faults per drawn line.
func Stems(c *logic.Circuit) []Fault {
	out := make([]Fault, 0, 2*c.NumSignals())
	for id := 0; id < c.NumSignals(); id++ {
		out = append(out,
			Fault{Signal: logic.SigID(id), Consumer: -1, Value: false},
			Fault{Signal: logic.SigID(id), Consumer: -1, Value: true})
	}
	return out
}

// Collapse performs structural equivalence collapsing on the full fault
// universe and returns one representative per equivalence class,
// deterministically (the earliest fault in universe order). The classes
// follow the classic rules:
//
//   - AND:  any input line s-a-0 ≡ output s-a-0
//   - NAND: any input line s-a-0 ≡ output s-a-1
//   - OR:   any input line s-a-1 ≡ output s-a-1
//   - NOR:  any input line s-a-1 ≡ output s-a-0
//   - NOT/BUF: input s-a-v ≡ output s-a-(v ⊕ inverted) for both v
//
// The "input line" of a gate is the fanout branch when the source signal
// has more than one consumer, otherwise the stem. A stem that is also a
// primary output is never merged into its consumer, since its faults are
// observed at that output directly.
func Collapse(c *logic.Circuit) []Fault {
	universe := All(c)
	index := make(map[Fault]int, len(universe))
	for i, f := range universe {
		index[f] = i
	}
	parent := make([]int, len(universe))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	isOut := make([]bool, c.NumSignals())
	for _, id := range c.Outputs() {
		isOut[id] = true
	}
	// inputLine returns the fault site of fanin f as seen by gate g, and
	// false when that site is a primary output's stem: a fault there is
	// observed at the output directly, so it is equivalent to no fault
	// of g.
	inputLine := func(f, g logic.SigID) (line, bool) {
		if len(c.Signal(f).Fanout) > 1 {
			return line{sig: f, consumer: g}, true
		}
		return line{sig: f, consumer: -1}, !isOut[f]
	}
	for id := 0; id < c.NumSignals(); id++ {
		gid := logic.SigID(id)
		s := c.Signal(gid)
		if s.Type == logic.TypeInput || s.Type == logic.TypeConst0 || s.Type == logic.TypeConst1 {
			continue
		}
		inv := s.Type.Inverting()
		switch s.Type {
		case logic.TypeNot, logic.TypeBuf:
			in, ok := inputLine(s.Fanin[0], gid)
			if !ok {
				continue
			}
			for _, v := range []bool{false, true} {
				fi := Fault{Signal: in.sig, Consumer: in.consumer, Value: v}
				fo := Fault{Signal: gid, Consumer: -1, Value: v != inv}
				union(index[fi], index[fo])
			}
		default:
			cv, has := s.Type.ControllingValue()
			if !has {
				continue // XOR family: no structural equivalence
			}
			outVal := cv != inv
			fo := Fault{Signal: gid, Consumer: -1, Value: outVal}
			for _, f := range s.Fanin {
				in, ok := inputLine(f, gid)
				if !ok {
					continue
				}
				fi := Fault{Signal: in.sig, Consumer: in.consumer, Value: cv}
				union(index[fi], index[fo])
			}
		}
	}
	var reps []Fault
	for i, f := range universe {
		if find(i) == i {
			reps = append(reps, f)
		}
	}
	return reps
}
