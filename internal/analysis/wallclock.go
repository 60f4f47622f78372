package analysis

import (
	"go/ast"
	"go/types"
)

// servingPackages are where spans are minted and refusals written: the
// session manager, the shard router, and the HTTP edge both mount.
var servingPackages = []string{
	"internal/service",
	"internal/router",
	"internal/edge",
}

// obsPackages is the observability layer itself.
var obsPackages = []string{"internal/obs"}

// rngNames are the internal/stats identifiers that hand out inference
// randomness. The observability layer may use the stats histograms,
// but a span or log record that consumed a session RNG draw would
// perturb the stream and break trace neutrality.
var rngNames = map[string]bool{
	"RNG":        true,
	"NewRNG":     true,
	"StreamSeed": true,
}

// injectableClockNames are the manager-style injectable clock hooks.
// Spans are wall-clock truth for operators; the fake clocks tests
// inject advance per call and would corrupt every duration they touch
// (see service.Manager.observeSpan).
var injectableClockNames = map[string]bool{
	"nowFn": true,
	"clock": true,
}

// Wallclock enforces the observability layer's clock discipline, the
// inverse of detrand: internal/obs must never draw from math/rand or
// the session RNG machinery, and span timestamps minted in the serving
// layer must come from time.Now — never from the injectable test clock.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "spans use time.Now and never the injectable clock or a session RNG; " +
		"internal/obs stays free of inference randomness",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	switch {
	case pathHasSuffix(pass.Pkg.Path(), obsPackages):
		runWallclockObs(pass)
	case pathHasSuffix(pass.Pkg.Path(), servingPackages):
		runWallclockServing(pass)
	}
	return nil
}

// runWallclockObs flags any use of math/rand (v1 or v2) and any use of
// the internal/stats RNG surface inside internal/obs.
func runWallclockObs(pass *Pass) {
	for id, obj := range pass.TypesInfo.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		switch {
		case pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2":
			pass.Reportf(id.Pos(),
				"internal/obs must not use %s.%s: observability is passive and never draws randomness (DESIGN.md §16)",
				pkg.Path(), obj.Name())
		case pathHasSuffix(pkg.Path(), []string{"internal/stats"}) && rngNames[obj.Name()]:
			pass.Reportf(id.Pos(),
				"internal/obs must not touch the session RNG surface (stats.%s); observability is passive (DESIGN.md §16)",
				obj.Name())
		}
	}
}

// runWallclockServing checks span-minting sites in the serving layer:
// every time.Time that reaches an obs.Span literal or an observeSpan
// call must trace back to time.Now, and in particular must not pass
// through an injectable clock field (nowFn) or method.
func runWallclockServing(pass *Pass) {
	for _, f := range pass.Files {
		withStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "observeSpan" {
					for _, a := range n.Args {
						checkSpanTime(pass, a, stack)
					}
				}
			case *ast.CompositeLit:
				if isObsSpanType(pass.TypesInfo.Types[n].Type) {
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "Start" || key.Name == "Seconds") {
							checkSpanTime(pass, kv.Value, stack)
						}
					}
				}
			}
		})
	}
}

func isObsSpanType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), obsPackages)
}

// checkSpanTime validates one expression feeding a span: it must not
// mention an injectable clock, directly or through the local variable
// it was assigned from.
func checkSpanTime(pass *Pass, e ast.Expr, stack []ast.Node) {
	if mentionsInjectableClock(pass, e) {
		pass.Reportf(e.Pos(),
			"span time derives from the injectable clock; spans are wall-clock truth — use time.Now (DESIGN.md §16)")
		return
	}
	// Chase one level of local definition: `start := m.nowFn()` ...
	// `observeSpan(..., start)`.
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	obj := objOf(pass.TypesInfo, id)
	if obj == nil {
		return
	}
	body := enclosingBody(stack)
	if body == nil {
		return
	}
	bad := false
	ast.Inspect(body, func(n ast.Node) bool {
		if bad || n == nil || n.Pos() > e.Pos() {
			return !bad
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || objOf(pass.TypesInfo, lid) != obj || i >= len(as.Rhs) {
				continue
			}
			if mentionsInjectableClock(pass, as.Rhs[i]) {
				bad = true
			}
		}
		return !bad
	})
	if bad {
		pass.Reportf(e.Pos(),
			"span time derives from the injectable clock; spans are wall-clock truth — use time.Now (DESIGN.md §16)")
	}
}

// mentionsInjectableClock reports whether the expression references a
// field or method with an injectable-clock name (nowFn, clock) or a
// clock-derived helper (nowSec).
func mentionsInjectableClock(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if ok && (injectableClockNames[sel.Sel.Name] || sel.Sel.Name == "nowSec") {
			found = true
			return false
		}
		return true
	})
	return found
}
