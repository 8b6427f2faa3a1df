package atpg

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
)

// TestTestFunctionNodeCountRepeats pins down that TestFunction folds the
// per-output differences in a fixed order: S is canonical in any order,
// but the intermediate nodes are not, so five fresh Generators building
// every test function must end with the same arena size.
func TestTestFunctionNodeCountRepeats(t *testing.T) {
	c := iscas.MustBenchmark("c432")
	fs := faults.Collapse(c)
	want := -1
	for run := 0; run < 5; run++ {
		g, err := New(c)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, f := range fs {
			g.TestFunction(f)
		}
		got := g.Manager().Size()
		if want < 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: test functions left %d nodes, run 0 left %d", run, got, want)
		}
	}
}
