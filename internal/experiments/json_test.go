package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/analog"
)

// TestDashedCellsEncodeAsNull puts +Inf in every cell the text tables
// draw as a dash and checks it comes out of json.Marshal as null, next
// to finite cells that keep their value.
func TestDashedCellsEncodeAsNull(t *testing.T) {
	inf := math.Inf(1)
	matrix := &analog.Matrix{Elements: []string{"R1"}, ED: [][]float64{{inf, 0.25}}}
	ts := &analog.TestSet{ParamIdx: []int{1}, ElementED: map[string]float64{"R1": inf}}
	cases := []struct {
		name string
		v    any
		want []string
	}{
		{"Eq1Data", Eq1Data{Matrix: matrix, TestSet: ts, ElementED: map[string]float64{"R1": inf}},
			[]string{`"ED":[[null,0.25]]`, `"ElementED":{"R1":null}`, `"TestSet":{"ParamIdx":[1],"ElementED":{"R1":null}}`}},
		{"Table3Data", Table3Data{Rows: []Table3Row{{Element: "C1", ED: 0.1, Case2ED: inf}}, Matrix: matrix, TestSet: ts},
			[]string{`"ED":0.1`, `"Case2ED":null`, `"ED":[[null,0.25]]`, `"ElementED":{"R1":null}`}},
		{"Table7Block", []Table7Block{{Circuit: "c432", ED: []float64{0.5, inf}}},
			[]string{`"Circuit":"c432"`, `"ED":[0.5,null]`}},
		{"Table8Row", Table8Row{Element: "R1", CD: inf, MPD: 0.3},
			[]string{`"CD":null`, `"MPD":0.3`}},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range c.want {
			if !strings.Contains(string(b), w) {
				t.Errorf("%s: %s lacks %s", c.name, b, w)
			}
		}
	}
	if !math.IsInf(matrix.ED[0][0], 1) || !math.IsInf(ts.ElementED["R1"], 1) {
		t.Error("encoding changed the Go values")
	}
}
