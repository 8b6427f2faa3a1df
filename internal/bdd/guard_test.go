package bdd

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
)

// buildParity builds a chain of XORs over fresh variables — every step
// allocates new nodes, so budgets and context polls both trigger.
func buildParity(m *Manager, n int) Ref {
	acc := False
	for i := 0; i < n; i++ {
		acc = m.Xor(acc, m.Var(fmt.Sprintf("v%d", i)))
	}
	return acc
}

func TestNodeBudgetTrips(t *testing.T) {
	m := New()
	col := obs.NewCollector()
	m.Instrument(col)
	m.SetNodeBudget(8)
	err := Guard(func() error {
		buildParity(m, 64)
		return nil
	})
	if err == nil {
		t.Fatal("construction inside an 8-node budget succeeded")
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("budget trip = %v, want ErrBudgetExceeded", err)
	}
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "bdd-nodes" {
		t.Fatalf("budget trip = %v, want resource bdd-nodes", err)
	}
	if col.Counter("bdd.budget.trips").Load() == 0 {
		t.Fatal("bdd.budget.trips not counted")
	}
	trip := false
	for _, ev := range col.Snapshot().Events {
		if ev.Kind == "bdd.trip" && ev.Name == "budget" && ev.Attr("limit") == "8" {
			trip = true
		}
	}
	if !trip {
		t.Fatal(`budget trip left no "bdd.trip" event on the collector`)
	}
}

func TestNodeBudgetResetPerItem(t *testing.T) {
	m := New()
	m.SetNodeBudget(64)
	for item := 0; item < 8; item++ {
		m.SetNodeBudget(64) // re-mark: each item gets a fresh allowance
		if err := Guard(func() error {
			m.Xor(m.Var(fmt.Sprintf("a%d", item)), m.Var(fmt.Sprintf("b%d", item)))
			return nil
		}); err != nil {
			t.Fatalf("item %d tripped a per-item budget it did not exceed: %v", item, err)
		}
	}
	m.SetNodeBudget(0)
	if err := Guard(func() error { buildParity(m, 32); return nil }); err != nil {
		t.Fatalf("budget 0 (disabled) tripped: %v", err)
	}
}

func TestBindContextCancels(t *testing.T) {
	m := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.BindContext(ctx)
	err := Guard(func() error {
		// Needs > ctxCheckStride allocations to reach a poll.
		buildParity(m, 2*ctxCheckStride)
		return nil
	})
	if err == nil {
		t.Fatal("construction under a canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel = %v, want context.Canceled", err)
	}
	m.BindContext(nil)
	m2 := New()
	m2.BindContext(nil)
	if err := Guard(func() error { buildParity(m2, 8); return nil }); err != nil {
		t.Fatalf("nil-bound manager errored: %v", err)
	}
}

func TestDeadlineClassifiesTimedOut(t *testing.T) {
	m := New()
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	m.BindContext(ctx)
	err := Guard(func() error {
		buildParity(m, 2*ctxCheckStride)
		return nil
	})
	out := guard.Classify(ctx, err)
	if out.Class != guard.TimedOut {
		t.Fatalf("expired deadline classified as %v (err %v), want TimedOut", out.Class, err)
	}
}

func TestLimitErrorMatchesBudgetSentinel(t *testing.T) {
	m := NewWithLimit(16)
	err := Guard(func() error { buildParity(m, 64); return nil })
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("LimitError = %v, does not match ErrBudgetExceeded", err)
	}
}

func TestGuardRepanicsForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Guard swallowed a foreign panic")
		}
	}()
	Guard(func() error { panic("not a bdd abort") })
}

// halves builds the two halves of a 12-pair inner product; their Xor is
// one product that allocates thousands of nodes across several
// unique-table doublings.
func halves(m *Manager) (a, b Ref) {
	for i := 0; i < 12; i++ {
		m.Var(fmt.Sprintf("x%d", i)) // x0…x11 above every y
	}
	return innerProduct(m, 0, 6), innerProduct(m, 6, 12)
}

// TestGuardsTripInsideOneProduct arms the node budget and a canceled
// context right before a single Xor, on a default and on a one-slot
// computed table: both guards must fire inside the product.
func TestGuardsTripInsideOneProduct(t *testing.T) {
	for _, tiny := range []bool{false, true} {
		m := New()
		if tiny {
			shrinkCache(m)
		}
		a, b := halves(m)
		before := m.Size()
		m.SetNodeBudget(100)
		err := Guard(func() error { m.Xor(a, b); return nil })
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("tiny=%v: budget inside Xor = %v, want ErrBudgetExceeded", tiny, err)
		}
		if got := m.Size() - before; got != 100 {
			t.Fatalf("tiny=%v: budget of 100 let %d nodes through", tiny, got)
		}
		m.SetNodeBudget(0)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m.BindContext(ctx)
		err = Guard(func() error { m.Xor(a, b); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("tiny=%v: cancel inside Xor = %v, want context.Canceled", tiny, err)
		}
		m.BindContext(nil)

		// A completed product after both trips is the same function on
		// either table.
		full := New()
		fa, fb := halves(full)
		if m.SatCount(m.Xor(a, b), 24) != full.SatCount(full.Xor(fa, fb), 24) {
			t.Fatalf("tiny=%v: product after the trips differs", tiny)
		}
	}
}
