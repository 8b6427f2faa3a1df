package analog_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analog"
	"repro/internal/circuits"
	"repro/internal/mna"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ed_golden.json")

// goldenMatrix is one ED matrix pinned bit for bit: every cell as the
// hex of its float64 bits, and the columns SelectTestSet chose.
type goldenMatrix struct {
	Name    string     `json:"name"`
	ED      [][]string `json:"ed"`
	TestSet []int      `json:"test_set"`
}

type edCase struct {
	name     string
	circuit  *mna.Circuit
	elements []string
	params   []analog.Parameter
}

// goldenCases builds the three filters at nominal and at two seeded
// perturbations that move every element of the fault universe within its
// 5% tolerance.
func goldenCases() []edCase {
	specs := []struct {
		name   string
		build  func() *mna.Circuit
		elems  []string
		params []analog.Parameter
	}{
		{"bandpass", circuits.BandPass2, circuits.BandPassElements, circuits.BandPassParams()},
		{"chebyshev", circuits.Chebyshev5, circuits.ChebyshevElements, circuits.ChebyshevParams()},
		{"statevar", func() *mna.Circuit { return circuits.StateVariable(true) }, circuits.StateVarElements, circuits.StateVarParams()},
	}
	var out []edCase
	for _, seed := range []int64{0, 1, 2} {
		for _, s := range specs {
			c := s.build()
			name := s.name + "/nominal"
			if seed != 0 {
				name = fmt.Sprintf("%s/seed%d", s.name, seed)
				r := rand.New(rand.NewSource(seed))
				for _, e := range s.elems {
					c.SetValue(e, c.Value(e)*(1+0.05*(2*r.Float64()-1)))
				}
			}
			out = append(out, edCase{name: name, circuit: c, elements: s.elems, params: s.params})
		}
	}
	return out
}

func bitsOf(ed [][]float64) [][]string {
	out := make([][]string, len(ed))
	for i, row := range ed {
		for _, v := range row {
			out[i] = append(out[i], fmt.Sprintf("%016x", math.Float64bits(v)))
		}
	}
	return out
}

// TestEDMatrixGolden pins every ED matrix of the three filters bit for bit,
// together with the test set chosen from it, and checks that BuildMatrix
// computes exactly what a cell-by-cell WorstCaseED loop computes. Any
// change to the ED search, the parameters or the MNA solver that moves a
// single bit fails here; a deliberate change regenerates the file with
// -update and says why.
func TestEDMatrixGolden(t *testing.T) {
	path := filepath.Join("testdata", "ed_golden.json")
	opt := analog.DefaultEDOptions()
	var got []goldenMatrix
	for _, ec := range goldenCases() {
		m, err := analog.BuildMatrix(ec.circuit, ec.elements, ec.params, opt)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		for i, e := range ec.elements {
			for j, p := range ec.params {
				ed, err := analog.WorstCaseED(ec.circuit, e, p, ec.elements, opt)
				if err != nil {
					t.Fatalf("%s: WorstCaseED(%s, %s): %v", ec.name, e, p.Name(), err)
				}
				if math.Float64bits(ed) != math.Float64bits(m.ED[i][j]) {
					t.Errorf("%s: ED(%s, %s): BuildMatrix %v, WorstCaseED %v", ec.name, e, p.Name(), m.ED[i][j], ed)
				}
			}
		}
		got = append(got, goldenMatrix{Name: ec.name, ED: bitsOf(m.ED), TestSet: m.SelectTestSet().ParamIdx})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenMatrix
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file holds %d matrices, computed %d", len(want), len(got))
	}
	for k := range want {
		w, g := want[k], got[k]
		if w.Name != g.Name {
			t.Fatalf("matrix %d: golden %q, computed %q", k, w.Name, g.Name)
		}
		if fmt.Sprint(w.TestSet) != fmt.Sprint(g.TestSet) {
			t.Errorf("%s: test set %v, golden %v", g.Name, g.TestSet, w.TestSet)
		}
		for i := range w.ED {
			for j := range w.ED[i] {
				if w.ED[i][j] != g.ED[i][j] {
					t.Errorf("%s: cell (%d, %d) bits %s, golden %s", g.Name, i, j, g.ED[i][j], w.ED[i][j])
				}
			}
		}
	}
}

// TestBuildMatrixSolveCount pins the exact number of MNA solves one
// nominal BuildMatrix of the band-pass makes: the work counter the ED
// search is tuned against.
func TestBuildMatrixSolveCount(t *testing.T) {
	const want = 41419
	col := obs.NewCollector()
	c := circuits.BandPass2()
	c.Instrument(col)
	if _, err := analog.BuildMatrix(c, circuits.BandPassElements, circuits.BandPassParams(), analog.DefaultEDOptions()); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Counters["mna.solves.dc"] + snap.Counters["mna.solves.ac"]; got != want {
		t.Errorf("BuildMatrix(BandPass2) made %d MNA solves, want %d", got, want)
	}
}
