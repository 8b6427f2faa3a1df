package bdd

import (
	"fmt"
	"math/rand"
	"testing"
)

// shrinkCache reduces m's computed table to one slot and keeps it there
// through every unique-table growth, so nearly every store evicts.
func shrinkCache(m *Manager) {
	m.cache = make([]cacheEntry, 1)
	m.cacheMax = 1
}

// randomOps replays one seeded sequence of ITE, Restrict, Compose,
// Exists and Cofactor calls on m over a pool that starts with the
// variables, and returns every result in order.
func randomOps(m *Manager, seed int64, nvars, steps int) []Ref {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, nvars)
	pool := make([]Ref, 0, nvars+steps)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
		pool = append(pool, m.Var(names[i]))
	}
	pick := func() Ref { return pool[r.Intn(len(pool))] }
	var out []Ref
	for i := 0; i < steps; i++ {
		var f Ref
		switch r.Intn(5) {
		case 0:
			f = m.ITE(pick(), pick(), pick())
		case 1:
			f = m.Restrict(pick(), names[r.Intn(nvars)], r.Intn(2) == 1)
		case 2:
			f = m.Compose(pick(), names[r.Intn(nvars)], pick())
		case 3:
			f = m.Exists(pick(), names[r.Intn(nvars)])
		default:
			cube, _ := randomCube(m, r, names)
			f = m.Cofactor(pick(), cube)
		}
		out = append(out, f)
		pool = append(pool, f)
	}
	return out
}

// TestCacheEvictionKeepsNodes runs the same op sequence on a default
// manager and on one with a one-slot computed table. Eviction may only
// cost recomputation: every Ref and the arena size must agree.
func TestCacheEvictionKeepsNodes(t *testing.T) {
	full := New()
	tiny := New()
	shrinkCache(tiny)
	want := randomOps(full, 1, 14, 3000)
	got := randomOps(tiny, 1, 14, 3000)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: one-slot cache returned %d, full cache %d", i, got[i], want[i])
		}
	}
	if tiny.Size() != full.Size() {
		t.Fatalf("Size: one-slot cache %d, full cache %d", tiny.Size(), full.Size())
	}
	if len(tiny.buckets) <= initTableSize {
		t.Fatalf("the unique table never grew (%d nodes): the test does not cover growth", tiny.Size())
	}
	if len(tiny.cache) != 1 {
		t.Fatalf("one-slot cache grew to %d slots", len(tiny.cache))
	}
}

// innerProduct builds x(from)·y(from) ⊕ … ⊕ x(to-1)·y(to-1). It
// declares x0…x(to-1) before any new y: under that order the product
// from 0 needs about 2^(to+1) nodes.
func innerProduct(m *Manager, from, to int) Ref {
	for i := 0; i < to; i++ {
		m.Var(fmt.Sprintf("x%d", i))
	}
	acc := False
	for i := from; i < to; i++ {
		acc = m.Xor(acc, m.And(m.Var(fmt.Sprintf("x%d", i)), m.Var(fmt.Sprintf("y%d", i))))
	}
	return acc
}

// TestUniqueTableGrowth builds a function across several bucket-array
// doublings, then checks that every node is still found by hash and that
// a rebuild, with the computed table emptied, allocates nothing.
func TestUniqueTableGrowth(t *testing.T) {
	m := New()
	f := innerProduct(m, 0, 13)
	if len(m.buckets) < 8*initTableSize {
		t.Fatalf("buckets = %d after %d nodes: fewer than three doublings", len(m.buckets), m.Size())
	}
	if len(m.nodes) > len(m.buckets) {
		t.Fatalf("%d nodes in %d buckets: load factor above 1", len(m.nodes), len(m.buckets))
	}
	for r := 2; r < len(m.nodes); r++ {
		n := m.nodes[r]
		if got := m.mk(n.level, n.lo, n.hi); got != Ref(r) {
			t.Fatalf("node %d re-hashed to %d", r, got)
		}
	}
	size := m.Size()
	m.cache = make([]cacheEntry, len(m.cache))
	if g := innerProduct(m, 0, 13); g != f {
		t.Fatalf("rebuild returned %d, first build %d", g, f)
	}
	if m.Size() != size {
		t.Fatalf("rebuild allocated %d nodes", m.Size()-size)
	}
}

// TestCacheBounded allocates past 2 Mi nodes and checks that the
// computed table stopped at its cap. mk is driven directly: the unique
// table does not care about variable order.
func TestCacheBounded(t *testing.T) {
	m := New()
	m.Var("x")
	if len(m.cache) != initTableSize {
		t.Fatalf("fresh computed table has %d slots, want %d", len(m.cache), initTableSize)
	}
	for r := Ref(1); m.Size() <= 2<<20; r++ {
		m.mk(0, r, r+1)
	}
	if len(m.cache) != maxCacheSize {
		t.Fatalf("computed table has %d slots after %d nodes, want the cap %d",
			len(m.cache), m.Size(), maxCacheSize)
	}
}
