package faults

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Simulation counters, resolved once against the process-wide collector.
// A "batch" is one 64-vector-wide parallel pass over the pending fault
// list — the unit of fault-simulation work; "evals" counts the gates
// re-evaluated inside fault cones.
var (
	cSimCalls    = obs.Default.Counter("faults.sim.calls")
	cSimBatches  = obs.Default.Counter("faults.sim.batches")
	cSimDetected = obs.Default.Counter("faults.sim.detected")
	cSimEvals    = obs.Default.Counter("faults.sim.evals")
)

// Vector is one fully specified input pattern, aligned with the circuit's
// Inputs() order.
type Vector []bool

// VectorFromAssignment builds a Vector from a named assignment; inputs
// absent from the map default to false.
func VectorFromAssignment(c *logic.Circuit, assign map[string]bool) Vector {
	v := make(Vector, len(c.Inputs()))
	for i, id := range c.Inputs() {
		v[i] = assign[c.Signal(id).Name]
	}
	return v
}

// Assignment renders the vector as a name → value map.
func (v Vector) Assignment(c *logic.Circuit) map[string]bool {
	out := make(map[string]bool, len(v))
	for i, id := range c.Inputs() {
		out[c.Signal(id).Name] = v[i]
	}
	return out
}

// String renders the vector as a bit string in input order.
func (v Vector) String() string {
	buf := make([]byte, len(v))
	for i, b := range v {
		if b {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// Simulator runs parallel-pattern single-fault (PPSFP) simulation over
// one circuit: for each batch of 64 vectors the good circuit is
// simulated once, and each fault then re-evaluates only its own fanout
// cone (see logic.FaultSim).
//
// A Simulator owns reusable scratch state and is not safe for concurrent
// use; give each goroutine its own.
type Simulator struct {
	k         *logic.FaultSim
	words     []uint64 // packed input words of the current batch
	remaining []int    // fault indices still undetected
}

// NewSimulator creates a fault simulator for the (frozen) circuit.
func NewSimulator(c *logic.Circuit) *Simulator {
	if !c.Frozen() {
		//lint:allow nopanic API misuse: the circuit must be frozen before simulation
		panic(fmt.Sprintf("faults: circuit %q must be frozen", c.Name))
	}
	return &Simulator{k: logic.NewFaultSim(c), words: make([]uint64, len(c.Inputs()))}
}

// load packs up to 64 vectors starting at base into per-input words,
// simulates the good circuit on them, and returns the mask of lanes in
// use. Unused lanes repeat the batch's first vector, so a fault active
// only in them never costs a cone evaluation.
func (s *Simulator) load(vectors []Vector, base int) uint64 {
	n := min(len(vectors)-base, 64)
	mask := ^uint64(0)
	if n < 64 {
		mask = (uint64(1) << uint(n)) - 1
	}
	for i := range s.words {
		s.words[i] = 0
		if vectors[base][i] {
			s.words[i] = ^mask
		}
		for p := 0; p < n; p++ {
			if vectors[base+p][i] {
				s.words[i] |= 1 << uint(p)
			}
		}
	}
	s.k.Load(s.words)
	return mask
}

// Detect simulates the vectors against the fault list and returns, for
// each fault, the index of the first detecting vector, or -1 if none
// detects it. Detected faults are dropped from further batches.
func (s *Simulator) Detect(vectors []Vector, fs []Fault) []int {
	cSimCalls.Inc()
	res := make([]int, len(fs))
	remaining := s.remaining[:0]
	for i := range res {
		res[i] = -1
		remaining = append(remaining, i)
	}
	evals, detected := 0, 0
	for base := 0; base < len(vectors) && len(remaining) > 0; base += 64 {
		cSimBatches.Inc()
		mask := s.load(vectors, base)
		next := remaining[:0]
		for _, fi := range remaining {
			diff, n := s.k.Simulate(fs[fi].Override(), nil)
			evals += n
			if diff &= mask; diff != 0 {
				detected++
				// Lowest set bit = first detecting vector in this batch.
				res[fi] = base + bits.TrailingZeros64(diff)
			} else {
				next = append(next, fi)
			}
		}
		remaining = next
	}
	s.remaining = remaining
	cSimDetected.Add(int64(detected))
	cSimEvals.Add(int64(evals))
	return res
}

// Coverage simulates the vectors and returns the number of detected
// faults.
func (s *Simulator) Coverage(vectors []Vector, fs []Fault) int {
	det := s.Detect(vectors, fs)
	n := 0
	for _, d := range det {
		if d >= 0 {
			n++
		}
	}
	return n
}

// DetectsFault reports whether the single vector detects the single fault.
func (s *Simulator) DetectsFault(v Vector, f Fault) bool {
	return s.Detect([]Vector{v}, []Fault{f})[0] >= 0
}
