package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporder guards the byte-identical-output contract: Go map iteration
// order is deliberately randomized, so a `range` over a map whose body
// accumulates into an order-carrying sink — appending to a slice that
// outlives the loop, or writing straight to an output stream / encoder —
// produces a different byte sequence on every run. That is exactly the
// bug shape that would silently break obs.Merge's deterministic
// snapshots, the report renderers, and the service journal.
//
// The sanctioned idioms are untouched:
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)          // the intervening sort redeems the loop
//	for _, k := range keys { …each m[k]… }
//
// A BDD fold is order-carrying too: `f = m.Compose(f, …)` or
// `s = m.Or(s, …)` on a *bdd.Manager, with f declared outside the loop.
// The final function is canonical, but the intermediate nodes — and so
// the node counters and any early exit — follow map order.
//
// Writing into another map, counting, or folding with a commutative
// operator inside the range body carries no order and is not flagged.
type maporder struct{}

func newMaporder() Check { return &maporder{} }

func (*maporder) Name() string { return "maporder" }
func (*maporder) Doc() string {
	return "no slice appends, output emission or BDD folds in map iteration order without a sort"
}

func (c *maporder) Run(p *Package) []Finding {
	var out []Finding
	seen := map[ast.Node]bool{} // dedupe sinks under nested map ranges
	for _, file := range p.Files {
		forEachFunc(file, func(fn funcNode) {
			inspectShallow(fn.body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok || !p.isMapExpr(rng.X) {
					return true
				}
				c.checkRange(p, fn, rng, seen, &out)
				return true
			})
		})
	}
	return out
}

// checkRange flags the order-carrying sinks in one map range body.
func (c *maporder) checkRange(p *Package, fn funcNode, rng *ast.RangeStmt, seen map[ast.Node]bool, out *[]Finding) {
	inspectShallow(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if seen[n] {
				return true
			}
			if obj := c.bddFoldTarget(p, n); obj != nil && !declaredIn(obj, rng) {
				seen[n] = true
				*out = append(*out, p.finding(c.Name(), n.Pos(),
					"BDD fold into %q in map iteration order; range over an ordered slice of the keys",
					obj.Name()))
				return true
			}
			obj, ok := c.appendTarget(p, n)
			if !ok || obj == nil {
				return true
			}
			// A slice born inside the loop body dies with the iteration
			// and carries no cross-iteration order.
			if declaredIn(obj, rng) {
				return true
			}
			if p.sortedAfter(fn, obj, rng.End()) {
				return true
			}
			seen[n] = true
			*out = append(*out, p.finding(c.Name(), n.Pos(),
				"append to %q in map iteration order; sort %q after the loop (or range over sorted keys)",
				obj.Name(), obj.Name()))
		case *ast.CallExpr:
			if seen[n] {
				return true
			}
			if sink, ok := c.emissionSink(p, n); ok {
				seen[n] = true
				*out = append(*out, p.finding(c.Name(), n.Pos(),
					"%s inside a map range emits in nondeterministic order; collect into a slice and sort first", sink))
			}
		}
		return true
	})
}

// appendTarget matches `s = append(s, ...)` / `s := append(s, ...)` and
// returns the destination slice's object.
func (c *maporder) appendTarget(p *Package, as *ast.AssignStmt) (types.Object, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !p.isBuiltin(call, "append") {
		return nil, false
	}
	return p.baseObj(as.Lhs[0]), true
}

// declaredIn reports whether obj is declared inside the range statement,
// so it dies with the iteration and carries no cross-iteration order.
func declaredIn(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() > rng.Pos() && obj.Pos() < rng.End()
}

// bddFoldTarget matches `v = m.Op(…, v, …)` where m is a *bdd.Manager
// and v is passed straight back in, and returns v's object.
func (c *maporder) bddFoldTarget(p *Package, as *ast.AssignStmt) types.Object {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isNamedIn(p.recvType(call), "internal/bdd", "Manager") {
		return nil
	}
	id, ok := unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.objectOf(id)
	if obj == nil {
		return nil
	}
	for _, a := range call.Args {
		if arg, ok := unparen(a).(*ast.Ident); ok && p.objectOf(arg) == obj {
			return obj
		}
	}
	return nil
}

// emissionSink classifies calls that serialize directly: the fmt print
// family, (*encoding/json.Encoder).Encode, and Write/WriteString methods
// on writer-shaped receivers (bytes.Buffer and strings.Builder very much
// included — building a string in map order is the same bug as printing
// in map order).
func (c *maporder) emissionSink(p *Package, call *ast.CallExpr) (string, bool) {
	f := p.calleeFunc(call)
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	switch f.Pkg().Path() {
	case "fmt":
		switch f.Name() {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return "fmt." + f.Name(), true
		}
	case "encoding/json":
		if f.Name() == "Encode" && isNamedIn(p.recvType(call), "encoding/json", "Encoder") {
			return "json.Encoder.Encode", true
		}
	}
	if (f.Name() == "Write" || f.Name() == "WriteString" || f.Name() == "WriteByte" || f.Name() == "WriteRune") &&
		p.recvType(call) != nil && isWriteMethod(f) {
		return f.Name() + " on a writer", true
	}
	return "", false
}

// isWriteMethod recognizes the io.Writer-family method shapes without
// needing a handle on the io package: Write([]byte)/WriteString(string)/
// WriteByte(byte)/WriteRune(rune) returning bytes-written and/or error.
func isWriteMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	switch t := sig.Params().At(0).Type().(type) {
	case *types.Slice:
		b, ok := t.Elem().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Basic:
		switch t.Kind() {
		case types.String, types.Byte, types.Rune:
			return true
		}
	}
	return false
}
