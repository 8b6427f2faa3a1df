// Package bdd implements reduced ordered binary decision diagrams (OBDDs)
// with a hash-consed unique table and a memoized ITE operator.
//
// The tables follow the classic CUDD/BuDDy layout. The unique table is
// exact: every node carries a chain link, and a power-of-two array of
// bucket heads indexes the node arena. The computed table (the memo of
// ITE, Cofactor and Exists) is direct-mapped and lossy: a colliding
// store overwrites its slot. It grows with the unique table up to a
// fixed cap, so a manager's memory is its node arena plus a constant.
// Because nodes are never freed, an evicted result is recomputed through
// unique-table hits alone: eviction costs time, never nodes, and every
// Ref is the same as with an unbounded memo.
//
// It provides the algebraic machinery the paper's test generator is built
// on: boolean combination of line functions, the boolean difference
// (computed as an XOR of good/faulty functions), constraint-function
// conjunction, satisfiability queries for vector extraction, and support
// analysis for composite-value (D) propagation. Following the paper, the
// special variable D is created *last* in the variable order so that it
// sits at the bottom of every diagram.
//
// A Manager owns an arena of nodes and is not safe for concurrent use.
// Node references (Ref) are only meaningful for the manager that produced
// them.
package bdd

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/guard"
	"repro/internal/obs"
)

// Ref identifies a BDD node inside its Manager. The constants False and
// True are the terminal nodes and are shared by all managers.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

const terminalLevel = int32(1) << 30

// node is one decision node: if var(level) then hi else lo. next links
// the node into its unique-table bucket chain; 0 ends a chain, since the
// terminal False is never a decision node.
type node struct {
	level int32
	lo    Ref
	hi    Ref
	next  Ref
}

// cacheEntry is one computed-table slot. tag is the op plus one, so the
// zero value is an empty slot.
type cacheEntry struct {
	tag        uint32
	f, g, h, r Ref
}

const (
	opITE uint32 = iota
	opExists
	opCofactor
)

const (
	// initTableSize is the starting size of the bucket array and of the
	// computed table.
	initTableSize = 1 << 10
	// maxCacheSize caps the computed table at 1 Mi slots (20 MB).
	maxCacheSize = 1 << 20
)

// LimitError is the panic value raised when a Manager exceeds its node
// limit. Callers building potentially explosive diagrams should wrap the
// construction in Guard.
type LimitError struct {
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("bdd: node limit %d exceeded", e.Limit)
}

// Is makes a node-limit trip match guard.ErrBudgetExceeded, so callers
// classify the whole family of resource exhaustions with one errors.Is.
func (e *LimitError) Is(target error) bool { return target == guard.ErrBudgetExceeded }

// CancelError is the panic value raised when the manager's bound context
// (BindContext) is done mid-construction. Guard converts it back into
// the context's error, so a per-fault deadline expiring inside a BDD
// product surfaces as context.DeadlineExceeded, not a crash.
type CancelError struct {
	Cause error
}

func (e *CancelError) Error() string { return fmt.Sprintf("bdd: construction canceled: %v", e.Cause) }

// Unwrap exposes the context error for errors.Is classification.
func (e *CancelError) Unwrap() error { return e.Cause }

// Manager owns the unique table, the operation cache and the variable
// order of a family of BDDs.
type Manager struct {
	vars    []string
	varIdx  map[string]int
	nodes   []node
	buckets []Ref // unique-table chain heads, indexed by hashNode
	cache   []cacheEntry
	// cacheMax caps len(cache): maxCacheSize, except in tests that
	// shrink the computed table to force collisions.
	cacheMax int
	limit    int
	peakSize int
	met      metrics

	// Per-work-item guards: ctx is polled every ctxCheckStride node
	// allocations, budget caps allocations since budgetMark. Both zero
	// values disable the check.
	ctx        context.Context
	ctxStrideN int
	budget     int
	budgetMark int
}

// metrics holds the manager's pre-resolved obs handles. The handles are
// looked up once in Instrument; the hot paths (mk, ITE, the op cache)
// then pay exactly one atomic add per event. All fields may be nil
// (uninstrumented manager), which every obs update method treats as a
// no-op.
type metrics struct {
	uniqueHit, uniqueMiss     *obs.Counter
	iteHit, iteMiss           *obs.Counter
	existsHit, existsMiss     *obs.Counter
	restrictHit, restrictMiss *obs.Counter
	nodesAlloc                *obs.Counter
	limitTrips                *obs.Counter
	budgetTrips               *obs.Counter
	cancels                   *obs.Counter
	peakNodes                 *obs.Gauge
	// col backs the rare-path "bdd.trip" events (budget trip, cancel);
	// nil when uninstrumented. Hot paths never touch it.
	col *obs.Collector
}

// Instrument points the manager's hot-path metrics at the collector
// (nil disables them again). Counter handles are interned by name, so
// managers sharing a collector accumulate into the same metrics:
//
//	bdd.unique.hit / bdd.unique.miss    unique-table (hash-cons) lookups
//	bdd.ite.hit / bdd.ite.miss          ITE computed-table lookups
//	bdd.exists.hit / bdd.exists.miss    Exists computed-table lookups
//	bdd.restrict.hit / bdd.restrict.miss  Cofactor computed-table lookups (also via Restrict/Compose/Exists)
//	bdd.nodes.alloc                     decision nodes allocated
//	bdd.limit.trips                     LimitError guard trips
//	bdd.budget.trips                    per-work-item node-budget trips
//	bdd.cancels                         constructions aborted by context
//	bdd.nodes.peak (gauge)              largest arena observed
//
// The computed table is lossy, so its hit counters count hits on results
// that survived eviction; a miss on an evicted result is recomputed.
//
// Budget trips and cancels additionally emit a structured "bdd.trip"
// event on the collector (they are rare — at most one per work item),
// so the run timeline shows when and why a construction was cut short.
func (m *Manager) Instrument(c *obs.Collector) {
	if c == nil {
		m.met = metrics{}
		return
	}
	m.met = metrics{
		uniqueHit:    c.Counter("bdd.unique.hit"),
		uniqueMiss:   c.Counter("bdd.unique.miss"),
		iteHit:       c.Counter("bdd.ite.hit"),
		iteMiss:      c.Counter("bdd.ite.miss"),
		existsHit:    c.Counter("bdd.exists.hit"),
		existsMiss:   c.Counter("bdd.exists.miss"),
		restrictHit:  c.Counter("bdd.restrict.hit"),
		restrictMiss: c.Counter("bdd.restrict.miss"),
		nodesAlloc:   c.Counter("bdd.nodes.alloc"),
		limitTrips:   c.Counter("bdd.limit.trips"),
		budgetTrips:  c.Counter("bdd.budget.trips"),
		cancels:      c.Counter("bdd.cancels"),
		peakNodes:    c.Gauge("bdd.nodes.peak"),
		col:          c,
	}
	m.met.peakNodes.SetMax(int64(len(m.nodes)))
}

// DefaultNodeLimit is the node budget of managers created with New.
const DefaultNodeLimit = 8 << 20

// New creates an empty manager with the default node limit.
func New() *Manager { return NewWithLimit(DefaultNodeLimit) }

// NewWithLimit creates an empty manager that will panic with *LimitError
// once its arena holds more than limit nodes.
func NewWithLimit(limit int) *Manager {
	m := &Manager{
		varIdx:   map[string]int{},
		buckets:  make([]Ref, initTableSize),
		cache:    make([]cacheEntry, initTableSize),
		cacheMax: maxCacheSize,
		limit:    limit,
	}
	// Terminal nodes occupy slots 0 and 1.
	m.nodes = append(m.nodes,
		node{level: terminalLevel},
		node{level: terminalLevel})
	return m
}

// Size returns the number of live nodes in the arena (including the two
// terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// PeakSize returns the largest arena size observed.
func (m *Manager) PeakSize() int {
	if len(m.nodes) > m.peakSize {
		m.peakSize = len(m.nodes)
	}
	return m.peakSize
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.vars) }

// VarName returns the name of the variable at the given level.
func (m *Manager) VarName(level int) string { return m.vars[level] }

// VarLevel returns the level of a declared variable and whether it exists.
func (m *Manager) VarLevel(name string) (int, bool) {
	l, ok := m.varIdx[name]
	return l, ok
}

// Var declares (or retrieves) a variable by name and returns the BDD for
// the literal "name". Declaration order is variable order: earlier
// declarations sit higher in the diagrams. Per the paper's convention the
// D variable must therefore be declared after all primary inputs.
func (m *Manager) Var(name string) Ref {
	if l, ok := m.varIdx[name]; ok {
		return m.mk(int32(l), False, True)
	}
	l := len(m.vars)
	m.vars = append(m.vars, name)
	m.varIdx[name] = l
	return m.mk(int32(l), False, True)
}

// NVar is a shorthand for Not(Var(name)).
func (m *Manager) NVar(name string) Ref { return m.Not(m.Var(name)) }

// Constant returns the terminal for b.
func Constant(b bool) Ref {
	if b {
		return True
	}
	return False
}

// IsConst reports whether f is a terminal node.
func IsConst(f Ref) bool { return f == False || f == True }

// ctxCheckStride is how many node allocations pass between context
// polls: frequent enough that a deadline aborts a blow-up promptly,
// sparse enough that the hot path stays one atomic add per event.
const ctxCheckStride = 1024

// BindContext points the manager at a context. While bound, node
// allocation polls the context every ctxCheckStride nodes and panics
// with *CancelError once it is done; Guard converts that back into the
// context's error. Pass nil to unbind. This is how per-fault deadlines
// reach into the middle of a BDD product.
func (m *Manager) BindContext(ctx context.Context) {
	m.ctx = ctx
	m.ctxStrideN = 0
}

// SetNodeBudget caps how many nodes may be allocated from now on: the
// budget is measured against the arena size at the call, so callers
// reset it per work item (per fault). Exceeding the budget panics with
// *guard.BudgetError (resource "bdd-nodes"); Guard converts it into a
// returned error. A non-positive n removes the budget. The manager's
// hard node limit stays in force independently.
func (m *Manager) SetNodeBudget(n int) {
	if n <= 0 {
		m.budget = 0
		return
	}
	m.budget = n
	m.budgetMark = len(m.nodes)
}

// checkGuards enforces the per-work-item budget and bound context on the
// allocation path (the only place unbounded growth can happen).
func (m *Manager) checkGuards() {
	if m.budget > 0 && len(m.nodes)-m.budgetMark >= m.budget {
		m.met.budgetTrips.Inc()
		// Trips are rare (at most one per work item) so the structured
		// event — visible on /events and in the run report timeline — is
		// affordable here, unlike on the allocation fast path.
		m.met.col.Event("bdd.trip", "budget",
			obs.Int("limit", int64(m.budget)),
			obs.Int("nodes", int64(len(m.nodes)-m.budgetMark)))
		panic(&guard.BudgetError{Resource: "bdd-nodes", Limit: int64(m.budget)})
	}
	if m.ctx != nil {
		m.ctxStrideN++
		if m.ctxStrideN >= ctxCheckStride {
			m.ctxStrideN = 0
			if err := m.ctx.Err(); err != nil {
				m.met.cancels.Inc()
				m.met.col.Event("bdd.trip", "cancel", obs.Str("cause", err.Error()))
				panic(&CancelError{Cause: err})
			}
		}
	}
}

// Multiplicative hashing constants (odd 64-bit mixers); the high half
// of the mixed product indexes a power-of-two table.
const (
	hashP1 = 0x9E3779B97F4A7C15
	hashP2 = 0xC2B2AE3D27D4EB4F
	hashP3 = 0x165667B19E3779F9
)

// hashNode hashes a node triple into a table of mask+1 slots.
func hashNode(level int32, lo, hi Ref, mask uint32) uint32 {
	h := (uint64(uint32(lo))*hashP1+uint64(uint32(hi)))*hashP2 + uint64(uint32(level))*hashP3
	return uint32(h>>32) & mask
}

// hashOp hashes a computed-table key into a table of mask+1 slots.
func hashOp(tag uint32, f, g, h Ref, mask uint32) uint32 {
	x := ((uint64(uint32(f))*hashP1+uint64(uint32(g)))*hashP2+uint64(uint32(h)))*hashP3 + uint64(tag)
	return uint32(x>>32) & mask
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules (no redundant tests, hash consing).
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	b := hashNode(level, lo, hi, uint32(len(m.buckets)-1))
	for r := m.buckets[b]; r != 0; r = m.nodes[r].next {
		if n := &m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			m.met.uniqueHit.Inc()
			return r
		}
	}
	m.met.uniqueMiss.Inc()
	m.checkGuards()
	if len(m.nodes) >= m.limit {
		m.met.limitTrips.Inc()
		panic(&LimitError{Limit: m.limit})
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi, next: m.buckets[b]})
	m.buckets[b] = r
	m.met.nodesAlloc.Inc()
	if len(m.nodes) > m.peakSize {
		m.peakSize = len(m.nodes)
		m.met.peakNodes.SetMax(int64(m.peakSize))
	}
	if len(m.nodes) > len(m.buckets) {
		m.grow()
	}
	return r
}

// grow doubles the bucket array, relinks every decision node from the
// arena, and doubles the computed table along with it up to cacheMax.
func (m *Manager) grow() {
	m.buckets = make([]Ref, 2*len(m.buckets))
	mask := uint32(len(m.buckets) - 1)
	for r := 2; r < len(m.nodes); r++ {
		n := &m.nodes[r]
		b := hashNode(n.level, n.lo, n.hi, mask)
		n.next = m.buckets[b]
		m.buckets[b] = Ref(r)
	}
	if len(m.cache) >= m.cacheMax {
		return
	}
	old := m.cache
	m.cache = make([]cacheEntry, min(2*len(old), m.cacheMax))
	for _, e := range old {
		if e.tag != 0 {
			m.cacheStore(e.tag-1, e.f, e.g, e.h, e.r)
		}
	}
}

// cacheLookup returns the memoized result of op(f, g, h), if its slot
// still holds it.
func (m *Manager) cacheLookup(op uint32, f, g, h Ref) (Ref, bool) {
	e := &m.cache[hashOp(op, f, g, h, uint32(len(m.cache)-1))]
	if e.tag == op+1 && e.f == f && e.g == g && e.h == h {
		return e.r, true
	}
	return 0, false
}

// cacheStore memoizes op(f, g, h) = r, overwriting whatever held the
// slot. It rehashes on every call because the table may have grown
// since the lookup.
func (m *Manager) cacheStore(op uint32, f, g, h, r Ref) {
	m.cache[hashOp(op, f, g, h, uint32(len(m.cache)-1))] = cacheEntry{tag: op + 1, f: f, g: g, h: h, r: r}
}

func (m *Manager) level(f Ref) int32 { return m.nodes[f].level }

// ITE computes if-then-else(f, g, h), the universal binary/ternary BDD
// operator.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if r, ok := m.cacheLookup(opITE, f, g, h); ok {
		m.met.iteHit.Inc()
		return r
	}
	m.met.iteMiss.Inc()
	// Split on the top variable of the three operands.
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.cacheStore(opITE, f, g, h, r)
	return r
}

// cofactors returns (f|var=0, f|var=1) for the variable at the given
// level, assuming level <= level(f).
func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Xnor returns ¬(f ⊕ g).
func (m *Manager) Xnor(f, g Ref) Ref { return m.ITE(f, g, m.Not(g)) }

// Implies returns f → g.
func (m *Manager) Implies(f, g Ref) Ref { return m.ITE(f, g, True) }

// Nand returns ¬(f ∧ g).
func (m *Manager) Nand(f, g Ref) Ref { return m.Not(m.And(f, g)) }

// Nor returns ¬(f ∨ g).
func (m *Manager) Nor(f, g Ref) Ref { return m.Not(m.Or(f, g)) }

// AndN folds And over its operands; AndN() = True.
func (m *Manager) AndN(fs ...Ref) Ref {
	acc := True
	for _, f := range fs {
		acc = m.And(acc, f)
		if acc == False {
			return False
		}
	}
	return acc
}

// OrN folds Or over its operands; OrN() = False.
func (m *Manager) OrN(fs ...Ref) Ref {
	acc := False
	for _, f := range fs {
		acc = m.Or(acc, f)
		if acc == True {
			return True
		}
	}
	return acc
}

// Cofactor returns f restricted by every literal of cube, a conjunction
// of literals such as x ∧ ¬y ∧ z: each variable of the cube is
// fixed to the value its literal requires, in one pass over f. True is
// the empty cube and returns f. Cofactor panics when cube is False or
// not a cube (some node of it has two non-False children).
func (m *Manager) Cofactor(f, cube Ref) Ref {
	for c := cube; c != True; c = m.cubeNext(c) {
		if n := m.nodes[c]; c == False || (n.lo != False && n.hi != False) {
			//lint:allow nopanic API misuse: the argument must be a cube of literals
			panic(fmt.Sprintf("bdd: Cofactor: %d is not a cube of literals", cube))
		}
	}
	return m.cofactor(f, cube)
}

// cubeNext returns the rest of cube c below its top literal.
func (m *Manager) cubeNext(c Ref) Ref {
	n := m.nodes[c]
	if n.lo != False {
		return n.lo
	}
	return n.hi
}

// cofactor is Cofactor on a cube already known to be well formed.
func (m *Manager) cofactor(f, c Ref) Ref {
	// Drop the cube's literals above f's top variable, and follow f
	// down through the ones on it: neither builds a node.
	for {
		if IsConst(f) || c == True {
			return f
		}
		fn, cn := m.nodes[f], m.nodes[c]
		if cn.level > fn.level {
			break
		}
		if cn.level == fn.level {
			if cn.lo == False {
				f = fn.hi
			} else {
				f = fn.lo
			}
		}
		c = m.cubeNext(c)
	}
	if r, ok := m.cacheLookup(opCofactor, f, c, False); ok {
		m.met.restrictHit.Inc()
		return r
	}
	m.met.restrictMiss.Inc()
	n := m.nodes[f]
	r := m.mk(n.level, m.cofactor(n.lo, c), m.cofactor(n.hi, c))
	m.cacheStore(opCofactor, f, c, False, r)
	return r
}

// literal returns the one-literal cube that fixes the named variable to
// val, and false if the variable is not declared.
func (m *Manager) literal(name string, val bool) (Ref, bool) {
	l, ok := m.varIdx[name]
	if !ok {
		return False, false
	}
	if val {
		return m.mk(int32(l), False, True), true
	}
	return m.mk(int32(l), True, False), true
}

// Restrict returns f with the named variable fixed to val.
func (m *Manager) Restrict(f Ref, name string, val bool) Ref {
	c, ok := m.literal(name, val)
	if !ok {
		return f
	}
	return m.cofactor(f, c)
}

// Compose substitutes g for the named variable inside f.
func (m *Manager) Compose(f Ref, name string, g Ref) Ref {
	pos, ok := m.literal(name, true)
	if !ok {
		return f
	}
	neg, _ := m.literal(name, false)
	return m.ITE(g, m.cofactor(f, pos), m.cofactor(f, neg))
}

// Exists existentially quantifies the named variable out of f.
func (m *Manager) Exists(f Ref, name string) Ref {
	pos, ok := m.literal(name, true)
	if !ok {
		return f
	}
	if r, ok := m.cacheLookup(opExists, f, pos, False); ok {
		m.met.existsHit.Inc()
		return r
	}
	m.met.existsMiss.Inc()
	neg, _ := m.literal(name, false)
	r := m.Or(m.cofactor(f, neg), m.cofactor(f, pos))
	m.cacheStore(opExists, f, pos, False, r)
	return r
}

// ExistsAll quantifies a set of variables out of f.
func (m *Manager) ExistsAll(f Ref, names []string) Ref {
	for _, n := range names {
		f = m.Exists(f, n)
	}
	return f
}

// Forall universally quantifies the named variable out of f.
func (m *Manager) Forall(f Ref, name string) Ref {
	return m.Not(m.Exists(m.Not(f), name))
}

// BooleanDifference returns ∂f/∂x = f|x=0 ⊕ f|x=1, the classic test-
// generation propagation condition used throughout the paper.
func (m *Manager) BooleanDifference(f Ref, name string) Ref {
	return m.Xor(m.Restrict(f, name, false), m.Restrict(f, name, true))
}

// Support returns the sorted names of the variables f depends on. This is
// the query the paper uses to decide whether a composite value D reached a
// primary output ("if the OBDD generated contains D, the fault can be
// tested").
func (m *Manager) Support(f Ref) []string {
	seen := map[Ref]bool{}
	levels := map[int32]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if IsConst(r) || seen[r] {
			return
		}
		seen[r] = true
		n := m.nodes[r]
		levels[n.level] = true
		walk(n.lo)
		walk(n.hi)
	}
	walk(f)
	var names []string
	for l := range levels {
		names = append(names, m.vars[l])
	}
	sort.Strings(names)
	return names
}

// DependsOn reports whether f depends on the named variable.
func (m *Manager) DependsOn(f Ref, name string) bool {
	l, ok := m.varIdx[name]
	if !ok {
		return false
	}
	target := int32(l)
	seen := map[Ref]bool{}
	var walk func(Ref) bool
	walk = func(r Ref) bool {
		if IsConst(r) || seen[r] || m.level(r) > target {
			return false
		}
		seen[r] = true
		n := m.nodes[r]
		if n.level == target {
			return true
		}
		return walk(n.lo) || walk(n.hi)
	}
	return walk(f)
}

// NodeCount returns the number of distinct decision nodes in f (terminals
// excluded).
func (m *Manager) NodeCount(f Ref) int {
	seen := map[Ref]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if IsConst(r) || seen[r] {
			return
		}
		seen[r] = true
		walk(m.nodes[r].lo)
		walk(m.nodes[r].hi)
	}
	walk(f)
	return len(seen)
}

// Eval evaluates f under the assignment; variables absent from the map
// default to false.
func (m *Manager) Eval(f Ref, assign map[string]bool) bool {
	for !IsConst(f) {
		n := m.nodes[f]
		if assign[m.vars[n.level]] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Guard runs fn, converting the manager's controlled aborts — node-limit
// and node-budget trips, and context cancellation — into returned
// errors. Any other panic is re-raised: Guard narrows the abort channel,
// it does not hide bugs (full panic isolation is guard.Do's job).
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *LimitError:
				err = e
			case *guard.BudgetError:
				err = e
			case *CancelError:
				err = e
			default:
				panic(r)
			}
		}
	}()
	return fn()
}
