// Package maporder defines an analyzer flagging order-sensitive work
// performed directly inside `range` over a map.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer reports map-range loops whose body does order-sensitive work:
// appending map values to a slice, accumulating floating-point sums, or
// scheduling simulator events. Go randomizes map iteration order per
// run, so each of these makes output depend on the iteration permutation
// — float addition is not associative, slice contents keep insertion
// order, and same-timestamp events fire in schedule order. This is the
// classic source of run-to-run drift in the figure tables.
//
// The collect-keys-then-sort idiom is recognized and allowed: appending
// only the range *key* (for later sorting) is deterministic once sorted.
// Integer accumulation is allowed (exact addition commutes). Writes
// keyed by the range variable (m2[k] = ...) are allowed (order cannot
// matter). Anything else order-sensitive that is knowingly safe should
// carry a "//lint:allow maporder <reason>" with the reason naming the
// sort or the single-element guarantee.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive work inside range-over-map loops",
	Run:  run,
}

// schedulers are method names that order simulator work; calling one
// per map entry interleaves same-timestamp events in map order, since
// each call takes the next sequence number. The Handler forms order work
// the same way as their func forms, and OnFire registration order is the
// order a signal's waiters are scheduled in when it fires.
var schedulers = map[string]bool{
	"Schedule":        true,
	"ScheduleAt":      true,
	"At":              true,
	"ScheduleHandler": true,
	"AtHandler":       true,
	"OnFire":          true,
	"OnFireHandler":   true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, ok := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); !ok {
				return true
			}
			checkBody(pass, rs)
			return true
		})
	}
	return nil
}

// checkBody scans one map-range body for order-sensitive statements.
func checkBody(pass *analysis.Pass, rs *ast.RangeStmt) {
	keyObj := rangeVarObj(pass, rs.Key)
	valObj := rangeVarObj(pass, rs.Value)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's body runs when called, not per iteration; its
			// captured loop variables are per-iteration copies (go1.22).
			return false
		case *ast.AssignStmt:
			checkAssign(pass, rs, keyObj, n)
		case *ast.ReturnStmt:
			checkReturn(pass, keyObj, valObj, n)
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && schedulers[sel.Sel.Name] {
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
					pass.Reportf(n.Pos(), "%s called while ranging over a map: same-timestamp events fire in map iteration order, which Go randomizes per run; iterate a sorted snapshot instead", fn.Name())
				}
			}
		}
		return true
	})
}

// checkReturn flags returning a value derived from the range variables:
// when more than one entry can reach the return, which entry's value
// escapes depends on map iteration order (the "first invalid entry wins"
// validation pattern is the usual shape — the reported entry changes
// run to run).
func checkReturn(pass *analysis.Pass, keyObj, valObj types.Object, ret *ast.ReturnStmt) {
	for _, res := range ret.Results {
		hit := false
		ast.Inspect(res, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && (obj == keyObj || obj == valObj) {
					hit = true
					return false
				}
			}
			return !hit
		})
		if hit {
			pass.Reportf(ret.Pos(), "return of a range-variable-derived value from inside a map range: which entry escapes depends on Go's randomized iteration order when several qualify; iterate sorted keys")
			return
		}
	}
}

// checkAssign flags float accumulation into, and appends onto, targets
// that outlive the loop.
func checkAssign(pass *analysis.Pass, rs *ast.RangeStmt, keyObj types.Object, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if isOrderSensitiveAccum(pass, rs, lhs) {
				pass.Reportf(as.Pos(), "floating-point accumulation into %s while ranging over a map: float addition is not associative, so the total depends on Go's randomized iteration order; iterate sorted keys", printName(lhs))
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if call := appendCall(rhs); call != nil {
				if !outlivesLoop(pass, rs, as.Lhs[i]) {
					continue
				}
				if appendsOnlyKey(pass, keyObj, call) {
					continue // collect-then-sort idiom
				}
				pass.Reportf(as.Pos(), "append to %s while ranging over a map: element order follows Go's randomized iteration order; collect keys, sort, then append", printName(as.Lhs[i]))
				continue
			}
			// x = x + v (float) spelled without the compound token.
			if bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr); ok &&
				(bin.Op == token.ADD || bin.Op == token.SUB) &&
				sameVar(pass, as.Lhs[i], bin.X) &&
				isOrderSensitiveAccum(pass, rs, as.Lhs[i]) {
				pass.Reportf(as.Pos(), "floating-point accumulation into %s while ranging over a map: float addition is not associative, so the total depends on Go's randomized iteration order; iterate sorted keys", printName(as.Lhs[i]))
			}
		}
	}
}

// isOrderSensitiveAccum reports whether lhs is a float-typed variable or
// field that outlives the loop. Integer accumulation commutes exactly and
// map-indexed targets (m2[k] += v) are keyed, so neither is flagged.
func isOrderSensitiveAccum(pass *analysis.Pass, rs *ast.RangeStmt, lhs ast.Expr) bool {
	if !outlivesLoop(pass, rs, lhs) {
		return false
	}
	t := pass.TypesInfo.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// outlivesLoop reports whether lhs denotes a variable declared outside
// the range statement (or a struct field, which always outlives it).
// Map/slice-indexed targets are excluded: writes keyed by the range
// variable are order-independent.
func outlivesLoop(pass *analysis.Pass, rs *ast.RangeStmt, lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		return obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() >= rs.End())
	case *ast.SelectorExpr:
		return analysis.SelectedVar(pass.TypesInfo, e) != nil
	}
	return false
}

// appendCall returns e as a call to the append builtin, or nil.
func appendCall(e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		return call
	}
	return nil
}

// appendsOnlyKey reports whether every appended element references only
// the range key (and constants) — the deterministic collect-then-sort
// idiom. Any use of the range value, or any other map access, keeps the
// append order-sensitive.
func appendsOnlyKey(pass *analysis.Pass, keyObj types.Object, call *ast.CallExpr) bool {
	if keyObj == nil {
		return false
	}
	for _, arg := range call.Args[1:] {
		ok := true
		ast.Inspect(arg, func(n ast.Node) bool {
			id, isIdent := n.(*ast.Ident)
			if !isIdent {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj == keyObj {
				return true
			}
			switch obj.(type) {
			case *types.Var:
				ok = false // some other variable feeds the element
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

// printName renders an assignment target for a diagnostic.
func printName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
		return e.Sel.Name
	}
	return "target"
}

// rangeVarObj resolves a range key/value ident to its object.
func rangeVarObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

// sameVar reports whether two expressions denote the same variable.
func sameVar(pass *analysis.Pass, a, b ast.Expr) bool {
	va := analysis.SelectedVar(pass.TypesInfo, a)
	if va == nil {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			va, _ = pass.TypesInfo.ObjectOf(id).(*types.Var)
		}
	}
	vb := analysis.SelectedVar(pass.TypesInfo, b)
	if vb == nil {
		if id, ok := ast.Unparen(b).(*ast.Ident); ok {
			vb, _ = pass.TypesInfo.ObjectOf(id).(*types.Var)
		}
	}
	return va != nil && va == vb
}
