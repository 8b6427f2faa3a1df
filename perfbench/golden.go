package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analog"
	"repro/internal/core"
)

// Golden values, transcribed from EXPERIMENTS.md at the precision it
// prints them. They apply only to the paper variant (DefaultSeed,
// variant 0).

// table4Row is one measured row of Table 4.
type table4Row struct {
	faults, untestFree, vectFree, untestCons, vectCons int
}

var goldenTable4 = map[string]table4Row{
	"c432":  {518, 4, 94, 12, 65},
	"c499":  {786, 8, 60, 10, 47},
	"c880":  {932, 0, 143, 12, 122},
	"c1355": {1552, 8, 121, 12, 98},
	"c1908": {1888, 10, 233, 81, 132},
}

// goldenTable5 is the measured blocked-comparator count per deviation
// direction (dev < −x, dev > +x).
var goldenTable5 = map[string][2]int{
	"c432":  {1, 1},
	"c499":  {2, 2},
	"c880":  {0, 0},
	"c1355": {1, 1},
	"c1908": {1, 1},
}

// goldenEq1 is the Equation 1 matrix in percent, one row per parameter
// (A1, A2, f0, fc1, fc2), one column per element (R1 R2 R3 R4 Rg Rd C1
// C2); "—" marks an unobservable pair.
var goldenEq1 = []string{
	"—     —     —     —     9.09  10.0  —     —",
	"38.3  38.3  38.3  62.0  16.0  64.8  12.8  38.3",
	"27.6  27.6  27.6  31.9  —     —     27.6  27.6",
	"26.3  26.3  26.3  30.5  —     52.2  41.9  26.3",
	"33.0  33.0  33.0  39.9  —     40.6  20.7  33.0",
}

// goldenEq1Set is Example 1's selected test set.
var goldenEq1Set = "A1 A2"

// goldenTable3Span is the range of the Chebyshev elements' best EDs.
var goldenTable3Span = [2]string{"8.3", "48.6"}

// goldenTable8 is the state-variable board's CD column: each element's
// best parameter and its worst-case deviation in percent.
var goldenTable8 = []string{
	"R1 A1dc 9.1", "R2 A1 10.0", "R3 A1dc 10.0", "R4 A2 10.2", "R5 A3'dc 36.7",
	"R6 A2dc 16.7", "R7 A2dc 20.0", "R8 A3 16.7", "R9 A2 92.9", "R fh1 5.2",
	"C1 A3 16.7", "C2 A2 92.9",
}

// pct renders a fraction the way the experiment tables print it.
func pct(frac float64) string {
	if math.IsInf(frac, 1) {
		return "—"
	}
	v := frac * 100
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func checkTable4(dc digitalCase, free, cons atpgOutput, rep *report) {
	want := goldenTable4[dc.name]
	got := table4Row{len(dc.faults), len(free.untestable), len(free.vectors), len(cons.untestable), len(cons.vectors)}
	if got != want {
		rep.mismatch("Table 4 %s: got %+v, EXPERIMENTS.md has %+v", dc.name, got, want)
	}
}

func checkTable5(name string, census *core.PropagationCensus, rep *report) {
	want := goldenTable5[name]
	got := [2]int{len(census.BlockedLow), len(census.BlockedHigh)}
	if got != want {
		rep.mismatch("Table 5 %s: blocked %v, EXPERIMENTS.md has %v", name, got, want)
	}
}

// checkAnalogGolden compares one paper-variant ED matrix with its
// EXPERIMENTS.md table.
func checkAnalogGolden(circuit string, m *analog.Matrix, ts *analog.TestSet, rep *report) {
	switch circuit {
	case "bandpass":
		for j := range m.Params {
			var cells []string
			for i := range m.Elements {
				cells = append(cells, pct(m.ED[i][j]))
			}
			if got, want := strings.Join(cells, " "), strings.Join(strings.Fields(goldenEq1[j]), " "); got != want {
				rep.mismatch("Eq1 row %s: got %s, EXPERIMENTS.md has %s", m.Params[j].Name(), got, want)
			}
		}
		if got := strings.Join(ts.ParamNames(m), " "); got != goldenEq1Set {
			rep.mismatch("Eq1 test set: got {%s}, EXPERIMENTS.md has {%s}", got, goldenEq1Set)
		}
	case "chebyshev":
		lo, hi := math.Inf(1), 0.0
		for _, e := range m.Elements {
			j := m.BestParamFor(e)
			if j < 0 {
				rep.mismatch("Table 3: element %s unobservable", e)
				continue
			}
			ed, _ := m.Lookup(e, m.Params[j].Name())
			lo, hi = math.Min(lo, ed), math.Max(hi, ed)
		}
		if got := [2]string{fmt.Sprintf("%.1f", lo*100), fmt.Sprintf("%.1f", hi*100)}; got != goldenTable3Span {
			rep.mismatch("Table 3 ED span: got %v, EXPERIMENTS.md has %v", got, goldenTable3Span)
		}
	case "statevar":
		for i, e := range m.Elements {
			got := e + " unobservable"
			if j := m.BestParamFor(e); j >= 0 {
				ed, _ := m.Lookup(e, m.Params[j].Name())
				got = fmt.Sprintf("%s %s %.1f", e, m.Params[j].Name(), ed*100)
			}
			if i >= len(goldenTable8) || got != goldenTable8[i] {
				rep.mismatch("Table 8: got %q, EXPERIMENTS.md row %d differs", got, i+1)
			}
		}
	}
}
