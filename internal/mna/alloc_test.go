package mna_test

import (
	"testing"

	"repro/internal/circuits"
)

// TestGainMagAllocatesNothing guards the analog hot path: once a circuit
// has solved at its size, a gain measurement reuses the circuit's
// workspace and reads one node, so it allocates nothing.
func TestGainMagAllocatesNothing(t *testing.T) {
	c := circuits.Chebyshev5()
	for _, f := range []float64{0, 10e3} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.GainMag(circuits.ChebyshevOutput, f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("GainMag at %g Hz: %v allocations per call, want 0", f, allocs)
		}
	}
}
