package logic

import "fmt"

// FaultSim is a parallel-pattern single-fault (PPSFP) simulator over one
// frozen circuit. Load simulates the good circuit once for a batch of up
// to 64 patterns; Simulate then injects one stuck-at fault at a time and
// re-evaluates only the gates whose inputs changed, level by level
// through the fault site's fanout cone, stopping as soon as no difference
// is left. Each Simulate call restores the signals it touched, so any
// number of faults can be run against one loaded batch.
//
// All working storage is owned by the FaultSim and reused, so Simulate
// allocates nothing. A FaultSim is not safe for concurrent use; give each
// goroutine its own.
type FaultSim struct {
	c       *Circuit
	good    []uint64  // good-circuit value per signal for the loaded batch
	val     []uint64  // working values; equal to good outside the running fault's cone
	isOut   []bool    // per signal: is a primary output
	queued  []bool    // per signal: waiting in its level bucket
	buckets [][]SigID // per level: gates to re-evaluate
	touched []SigID   // signals whose val differs from good
	top     int       // highest level with a queued gate
	fanin   []uint64  // gate-evaluation scratch
}

// NewFaultSim returns a PPSFP simulator for the circuit, which must be
// frozen.
func NewFaultSim(c *Circuit) *FaultSim {
	c.mustBeFrozen()
	n := len(c.signals)
	s := &FaultSim{
		c:       c,
		good:    make([]uint64, n),
		val:     make([]uint64, n),
		isOut:   make([]bool, n),
		queued:  make([]bool, n),
		buckets: make([][]SigID, c.Depth()+1),
	}
	for _, id := range c.outputs {
		s.isOut[id] = true
	}
	return s
}

// Load simulates the good circuit for one batch: inWords has one word
// per primary input, in Inputs() order, and bit k of each word is
// pattern k.
func (s *FaultSim) Load(inWords []uint64) {
	s.fanin = s.c.simInto(s.good, inWords, NoOverride, s.fanin)
	copy(s.val, s.good)
}

// Simulate runs the fault ov against the loaded batch. It returns the
// pattern lanes in which at least one primary output differs from the
// good circuit, and the number of gates it re-evaluated. If out is not
// nil it receives the faulty primary-output words, in Outputs() order,
// and must have one word per output.
func (s *FaultSim) Simulate(ov Override, out []uint64) (diff uint64, evals int) {
	if !ov.active() {
		if out != nil {
			s.outputs(out)
		}
		return 0, 0
	}
	sigs := s.c.signals
	w := ov.word()
	lvl := sigs[ov.Signal].Level
	s.top = lvl
	switch {
	case s.good[ov.Signal] == w:
		// Not activated in any lane: the faulty circuit is the good one.
	case ov.Consumer < 0:
		diff = s.set(ov.Signal, w)
	default:
		// A branch fault changes only what its consumer sees.
		lvl = sigs[ov.Consumer].Level
		evals++
		if v := s.eval(ov.Consumer, ov); v != s.good[ov.Consumer] {
			diff = s.set(ov.Consumer, v)
		}
	}
	// Every gate queued by set sits above the level being processed, so
	// one upward sweep evaluates each at most once, after all its fanins.
	// The consumer of a branch fault is never queued again: its fanins
	// sit below it and do not change.
	for lvl++; lvl <= s.top; lvl++ {
		for _, id := range s.buckets[lvl] {
			s.queued[id] = false
			evals++
			if v := s.eval(id, ov); v != s.val[id] {
				diff |= s.set(id, v)
			}
		}
		s.buckets[lvl] = s.buckets[lvl][:0]
	}
	if out != nil {
		s.outputs(out)
	}
	for _, id := range s.touched {
		s.val[id] = s.good[id]
	}
	s.touched = s.touched[:0]
	return diff, evals
}

// eval evaluates gate id on the working values, with the branch of ov
// that feeds id, if any, forced.
func (s *FaultSim) eval(id SigID, ov Override) uint64 {
	g := &s.c.signals[id]
	s.fanin = s.fanin[:0]
	for _, f := range g.Fanin {
		v := s.val[f]
		if id == ov.Consumer && f == ov.Signal {
			v = ov.word()
		}
		s.fanin = append(s.fanin, v)
	}
	return g.Type.evalWords(s.fanin)
}

// set records a faulty value for id, queues its consumers and returns
// the lanes it changes if id is a primary output.
func (s *FaultSim) set(id SigID, v uint64) uint64 {
	s.val[id] = v
	s.touched = append(s.touched, id)
	for _, g := range s.c.signals[id].Fanout {
		if !s.queued[g] {
			s.queued[g] = true
			l := s.c.signals[g].Level
			s.buckets[l] = append(s.buckets[l], g)
			if l > s.top {
				s.top = l
			}
		}
	}
	if s.isOut[id] {
		return v ^ s.good[id]
	}
	return 0
}

func (s *FaultSim) outputs(out []uint64) {
	if len(out) != len(s.c.outputs) {
		//lint:allow nopanic output word count mismatch is a caller bug
		panic(fmt.Sprintf("logic: FaultSim: %d output words for %d outputs", len(out), len(s.c.outputs)))
	}
	for i, id := range s.c.outputs {
		out[i] = s.val[id]
	}
}
