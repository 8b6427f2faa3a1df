// Package maporder is a lint fixture: slice appends, direct emission and
// BDD folds in map iteration order, the sanctioned idioms, and one
// suppressed case.
package maporder

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bdd"
)

// Keys appends in map order with no sort: a different slice every run.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Print emits straight from the range body.
func Print(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}

// Encode streams JSON in map order.
func Encode(m map[string]int, buf *bytes.Buffer) error {
	enc := json.NewEncoder(buf)
	for k := range m {
		if err := enc.Encode(k); err != nil {
			return err
		}
	}
	return nil
}

// Build accumulates a string in map order: the same bug as printing.
func Build(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(k)
	}
}

// ComposeAll substitutes in map order: the result is canonical, but the
// intermediate nodes differ per run.
func ComposeAll(m *bdd.Manager, f bdd.Ref, sub map[string]bdd.Ref) bdd.Ref {
	for name, g := range sub {
		f = m.Compose(f, name, g)
	}
	return f
}

// OrAll folds Or over a map's values in map order.
func OrAll(m *bdd.Manager, fs map[int]bdd.Ref) bdd.Ref {
	s := bdd.False
	for _, f := range fs {
		s = m.Or(s, m.Not(f))
	}
	return s
}

// ComposeOrdered ranges over the ordered names and looks each up.
func ComposeOrdered(m *bdd.Manager, f bdd.Ref, names []string, sub map[string]bdd.Ref) bdd.Ref {
	for _, name := range names {
		if g, ok := sub[name]; ok {
			f = m.Compose(f, name, g)
		}
	}
	return f
}

// PerKey folds into a variable born in the loop body: nothing carries
// across iterations.
func PerKey(m *bdd.Manager, f bdd.Ref, sub map[string]bdd.Ref) map[string]bdd.Ref {
	out := map[string]bdd.Ref{}
	for name, g := range sub {
		r := m.Not(f)
		r = m.Compose(r, name, g)
		out[name] = r
	}
	return out
}

// SortedKeys is the sanctioned collect-then-sort idiom.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Fold carries no order: summing is commutative.
func Fold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// PerIteration scratch slices die with the iteration and are not flagged.
func PerIteration(m map[string][]int) int {
	longest := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		if len(local) > longest {
			longest = len(local)
		}
	}
	return longest
}

// Waived documents an intentional unordered emission.
func Waived(m map[string]int) {
	for k := range m {
		//lint:allow maporder fixture: debug dump, order genuinely irrelevant
		fmt.Println(k)
	}
}
