package experiments

import (
	"encoding/json"
	"math"

	"repro/internal/analog"
)

// The payloads mark an unobservable or untestable cell with +Inf, which
// encoding/json rejects. Their MarshalJSON methods encode such a cell as
// null and leave the Go values, and so the text tables, as they are.

// edJSON is a deviation that encodes as null when it is not finite.
type edJSON float64

func (v edJSON) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

func edSlice(xs []float64) []edJSON {
	if xs == nil {
		return nil
	}
	out := make([]edJSON, len(xs))
	for i, x := range xs {
		out[i] = edJSON(x)
	}
	return out
}

func edMap(m map[string]float64) map[string]edJSON {
	if m == nil {
		return nil
	}
	out := make(map[string]edJSON, len(m))
	for k, x := range m {
		out[k] = edJSON(x)
	}
	return out
}

// matrixJSON and testSetJSON mirror analog.Matrix and analog.TestSet
// field for field.
type matrixJSON struct {
	Elements []string
	Params   []analog.Parameter
	ED       [][]edJSON
}

type testSetJSON struct {
	ParamIdx  []int
	ElementED map[string]edJSON
}

func matrixView(m *analog.Matrix) *matrixJSON {
	if m == nil {
		return nil
	}
	ed := make([][]edJSON, len(m.ED))
	for i, row := range m.ED {
		ed[i] = edSlice(row)
	}
	return &matrixJSON{Elements: m.Elements, Params: m.Params, ED: ed}
}

func testSetView(ts *analog.TestSet) *testSetJSON {
	if ts == nil {
		return nil
	}
	return &testSetJSON{ParamIdx: ts.ParamIdx, ElementED: edMap(ts.ElementED)}
}

// MarshalJSON encodes the unobservable cells of the matrix as null.
func (d Eq1Data) MarshalJSON() ([]byte, error) {
	type plain Eq1Data
	return json.Marshal(struct {
		plain
		Matrix    *matrixJSON
		TestSet   *testSetJSON
		ElementED map[string]edJSON
	}{plain(d), matrixView(d.Matrix), testSetView(d.TestSet), edMap(d.ElementED)})
}

// MarshalJSON encodes the unobservable cells of the matrix as null.
func (d Table3Data) MarshalJSON() ([]byte, error) {
	type plain Table3Data
	return json.Marshal(struct {
		plain
		Matrix  *matrixJSON
		TestSet *testSetJSON
	}{plain(d), matrixView(d.Matrix), testSetView(d.TestSet)})
}

// MarshalJSON encodes an untestable case 2 as a null Case2ED.
func (r Table3Row) MarshalJSON() ([]byte, error) {
	type plain Table3Row
	return json.Marshal(struct {
		plain
		Case2ED edJSON
	}{plain(r), edJSON(r.Case2ED)})
}

// MarshalJSON encodes a dashed ED cell as null.
func (b Table7Block) MarshalJSON() ([]byte, error) {
	type plain Table7Block
	return json.Marshal(struct {
		plain
		ED []edJSON
	}{plain(b), edSlice(b.ED)})
}

// MarshalJSON encodes a dashed CD cell as null.
func (r Table8Row) MarshalJSON() ([]byte, error) {
	type plain Table8Row
	return json.Marshal(struct {
		plain
		CD edJSON
	}{plain(r), edJSON(r.CD)})
}
