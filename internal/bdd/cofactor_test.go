package bdd

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// randomCube draws a cube over names: each variable is left out, or
// fixed to 0 or 1, with equal odds. It returns the cube and the values
// it fixes.
func randomCube(m *Manager, r *rand.Rand, names []string) (Ref, map[string]bool) {
	cube := True
	fixed := map[string]bool{}
	for _, n := range names {
		switch r.Intn(3) {
		case 0:
			cube = m.And(cube, m.Var(n))
			fixed[n] = true
		case 1:
			cube = m.And(cube, m.NVar(n))
			fixed[n] = false
		}
	}
	return cube, fixed
}

// agreesWithFixed reports whether g equals f with the fixed variables
// forced, on every assignment of names.
func agreesWithFixed(m *Manager, f, g Ref, names []string, fixed map[string]bool) bool {
	for bits := 0; bits < 1<<len(names); bits++ {
		a := map[string]bool{}
		for i, n := range names {
			a[n] = bits>>i&1 == 1
		}
		forced := map[string]bool{}
		for n, v := range a {
			forced[n] = v
		}
		for n, v := range fixed {
			forced[n] = v
		}
		if m.Eval(g, a) != m.Eval(f, forced) {
			return false
		}
	}
	return true
}

// TestCofactorMatchesRestrictions: for random functions and random
// cubes, Cofactor equals restricting one literal at a time, and its
// truth table is f's with the cube's variables forced.
func TestCofactorMatchesRestrictions(t *testing.T) {
	m := New()
	r := rand.New(rand.NewSource(1))
	names := make([]string, 8)
	vars := make([]Ref, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
		vars[i] = m.Var(names[i])
	}
	for trial := 0; trial < 300; trial++ {
		f := False
		for i := 0; i < 6; i++ {
			term, _ := randomCube(m, r, names)
			f = m.Or(f, term)
		}
		cube, fixed := randomCube(m, r, names)
		got := m.Cofactor(f, cube)
		keys := make([]string, 0, len(fixed))
		for n := range fixed {
			keys = append(keys, n)
		}
		sort.Strings(keys)
		seq := f
		for _, n := range keys {
			seq = m.Restrict(seq, n, fixed[n])
		}
		if got != seq {
			t.Fatalf("trial %d: Cofactor = %d, successive Restricts = %d", trial, got, seq)
		}
		if !agreesWithFixed(m, f, got, names, fixed) {
			t.Fatalf("trial %d: Cofactor by %v disagrees with the truth table", trial, fixed)
		}
	}
}

// TestCofactorCubeAroundSupport puts cube literals above, between, on
// and below f's support, and checks the trivial cubes and functions.
func TestCofactorCubeAroundSupport(t *testing.T) {
	m := New()
	x := make([]Ref, 10)
	for i := range x {
		x[i] = m.Var(fmt.Sprintf("x%d", i))
	}
	// Support {x3, x5, x6}.
	f := m.Xor(x[3], m.And(x[5], x[6]))
	cases := []struct {
		name string
		cube Ref
		want Ref
	}{
		{"above", m.And(x[0], m.Not(x[1])), f},
		{"between", m.Not(x[4]), f},
		{"below", m.And(x[8], m.Not(x[9])), f},
		{"empty", True, f},
		{"on the support", m.And(m.Not(x[3]), x[6]), x[5]},
		{"all around", m.AndN(x[1], m.Not(x[4]), x[5], m.Not(x[8])), m.Xor(x[3], x[6])},
		{"whole support", m.AndN(x[3], x[5], x[6]), False},
	}
	for _, c := range cases {
		if got := m.Cofactor(f, c.cube); got != c.want {
			t.Errorf("%s: Cofactor = %s, want %s", c.name, m.String(got), m.String(c.want))
		}
	}
	for _, k := range []Ref{False, True} {
		if got := m.Cofactor(k, m.And(x[2], x[7])); got != k {
			t.Errorf("Cofactor of constant %d = %d", k, got)
		}
	}
}

// TestCofactorRejectsNonCube: False and any diagram with a node whose
// children are both non-False panic with a message naming the problem.
func TestCofactorRejectsNonCube(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	f := m.Xor(a, c)
	for _, bad := range []Ref{False, m.Or(a, b), m.And(a, m.Or(b, c)), m.Xor(b, c)} {
		func() {
			defer func() {
				p := recover()
				if msg, _ := p.(string); !strings.Contains(msg, "not a cube") {
					t.Errorf("Cofactor(f, %s) panicked with %v, want a not-a-cube message", m.String(bad), p)
				}
			}()
			m.Cofactor(f, bad)
		}()
	}
}
