package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// traceAffecting lists the package suffixes whose outputs feed the
// selection trace: anything nondeterministic here breaks the standing
// "selection traces are bit-identical across worker counts, cache
// modes, migrations and crash recovery" invariant the property tests
// pin per seed. The analyzer pins it for every seed, at compile time.
var traceAffecting = []string{
	"internal/core",
	"internal/em",
	"internal/gibbs",
	"internal/guidance",
	"internal/stats",
	"internal/synth",
	"internal/factdb",
	"internal/stream",
	"internal/graph",
	"internal/features",
}

// mathRandAllowed are the math/rand names that do not draw from the
// shared global source: constructing an explicitly seeded generator is
// deterministic, the package-level convenience functions are not.
var mathRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// wallClockFuncs are the time package's ambient-clock readers. The
// monotonic wall clock is observability-only by DESIGN.md §16;
// inference code gets its notion of progress from sweep ordinals and
// seeds, never from the scheduler.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// Detrand reports nondeterminism sources in trace-affecting packages:
// global math/rand draws, wall-clock reads, and map iteration whose
// order escapes into slices, index writes, or formatted output without
// an intervening sort.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbid nondeterminism sources (global math/rand, time.Now/Since, " +
		"unsorted map iteration flowing into ordered output) in trace-affecting packages",
	Run: runDetrand,
}

func runDetrand(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), traceAffecting) {
		return nil
	}
	for _, f := range pass.Files {
		withStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, stack)
			}
		})
	}
	return nil
}

func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
		if name, ok := pkgFunc(pass.TypesInfo, call, randPkg); ok && !mathRandAllowed[name] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global math/rand source; derive a per-component stream from stats.StreamSeed instead",
				randPkg, name)
			return
		}
	}
	if name, ok := pkgFunc(pass.TypesInfo, call, "time"); ok && wallClockFuncs[name] {
		pass.Reportf(call.Pos(),
			"time.%s reads the wall clock in a trace-affecting package; the clock is observability-only (DESIGN.md §16)", name)
	}
}

// checkMapRange flags `range m` over a map when the loop body lets the
// iteration order escape into ordered output — an append, a write
// through a slice index, or a formatting/writing call that mentions
// the loop variables — and no sort of the destination follows the loop
// in the same function. Collect-then-sort is the blessed idiom and
// passes; aggregation (sums, counts, map-to-map rebuilds) never
// triggers the check because order cannot escape.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypesInfo.Types[rs.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := objOf(pass.TypesInfo, id); o != nil {
				loopVars[o] = true
			}
		}
	}
	body := enclosingBody(stack)
	var sinks []orderSink
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if s, ok := appendSink(pass.TypesInfo, n, loopVars); ok {
				sinks = append(sinks, s)
			} else if formatSink(pass.TypesInfo, n, loopVars) {
				sinks = append(sinks, orderSink{kind: "formatted output"})
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if s, ok := indexWriteSink(pass.TypesInfo, n, lhs, loopVars); ok {
					sinks = append(sinks, s)
				}
			}
		}
		return true
	})
	for _, s := range sinks {
		if s.target != nil && sortedAfter(pass.TypesInfo, body, rs, s.target) {
			continue
		}
		pass.Reportf(rs.For,
			"map iteration order flows into %s without a deterministic sort; sort the destination (or iterate sorted keys)", s.kind)
		return // one diagnostic per loop is enough
	}
}

// orderSink is one place iteration order escapes to; target (when
// resolvable) is the destination object a later sort can absolve.
type orderSink struct {
	kind   string
	target types.Object
}

// appendSink matches append calls in the loop body whose appended
// values depend on the loop variables.
func appendSink(info *types.Info, call *ast.CallExpr, loopVars map[types.Object]bool) (orderSink, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return orderSink{}, false
	}
	if _, ok := objOf(info, id).(*types.Builtin); !ok || id.Name != "append" {
		return orderSink{}, false
	}
	dependent := false
	for _, a := range call.Args[1:] {
		if usesAny(info, a, loopVars) {
			dependent = true
			break
		}
	}
	if !dependent {
		return orderSink{}, false
	}
	s := orderSink{kind: "an append"}
	if root := rootIdent(call.Args[0]); root != nil {
		s.target = objOf(info, root)
	}
	return s, true
}

// indexWriteSink matches writes through a slice or array index inside
// a statement that depends on the loop variables (s[i] = k, s[k] = v,
// s[0] = k): whether the order-dependence is in the index or the
// value, the slice contents end up a function of iteration order.
func indexWriteSink(info *types.Info, assign *ast.AssignStmt, lhs ast.Expr, loopVars map[types.Object]bool) (orderSink, bool) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return orderSink{}, false
	}
	t := info.Types[ix.X].Type
	if t == nil {
		return orderSink{}, false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
	default:
		return orderSink{}, false
	}
	if !usesAny(info, assign, loopVars) {
		return orderSink{}, false
	}
	s := orderSink{kind: "a slice index write"}
	if root := rootIdent(ix.X); root != nil {
		s.target = objOf(info, root)
	}
	return s, true
}

// formatSink matches fmt package calls and Write*/print-style method
// calls that mention the loop variables — iteration order escaping
// into encoded output.
func formatSink(info *types.Info, call *ast.CallExpr, loopVars map[types.Object]bool) bool {
	mentions := false
	for _, a := range call.Args {
		if usesAny(info, a, loopVars) {
			mentions = true
			break
		}
	}
	if !mentions {
		return false
	}
	if _, ok := pkgFunc(info, call, "fmt"); ok {
		return true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if strings.HasPrefix(sel.Sel.Name, "Write") {
			return true
		}
	}
	return false
}

// sortedAfter reports whether a sorting call taking the target
// appears after the range statement in the enclosing function body: a
// sort/slices package function, or a local helper with "sort" in its
// name (the codebase keeps allocation-free insertion sorts like
// sortInts next to the hot paths).
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, target types.Object) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 || !isSortCall(info, call) {
			return true
		}
		for _, a := range call.Args {
			if root := rootIdent(a); root != nil && objOf(info, root) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if _, ok := pkgFunc(info, call, "sort"); ok {
		return true
	}
	if _, ok := pkgFunc(info, call, "slices"); ok {
		return true
	}
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// enclosingBody returns the innermost enclosing function body from an
// ancestor stack.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch d := stack[i].(type) {
		case *ast.FuncLit:
			return d.Body
		case *ast.FuncDecl:
			return d.Body
		}
	}
	return nil
}
