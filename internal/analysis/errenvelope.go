package analysis

import (
	"go/ast"
	"go/constant"
)

// envelopeFunnels are the only functions allowed to write an error
// status directly: edge.WriteError builds the JSON envelope
// {"error":{code,message,retryAfter,traceId}} and edge.WriteJSON is its
// serializer. Everything else must refuse through them, which is what
// keeps the PR 8 error contract total: stable codes, Retry-After
// mirroring, and trace-id stamping on every refusal.
var envelopeFunnels = map[string]bool{
	"WriteError": true,
	"WriteJSON":  true,
}

// Errenvelope forbids bare HTTP refusals in the serving packages: no
// http.Error, and no w.WriteHeader with a constant 4xx/5xx status
// outside the envelope funnel. Non-constant statuses (proxy
// passthrough of a backend's already-enveloped response) are exempt by
// construction.
var Errenvelope = &Analyzer{
	Name: "errenvelope",
	Doc: "every HTTP refusal in internal/service, internal/router and internal/edge goes through " +
		"the JSON error-envelope helper; no bare http.Error or constant 4xx/5xx WriteHeader",
	Run: runErrenvelope,
}

func runErrenvelope(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), servingPackages) {
		return nil
	}
	for _, f := range pass.Files {
		withStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if name, ok := pkgFunc(pass.TypesInfo, call, "net/http"); ok && name == "Error" {
				pass.Reportf(call.Pos(),
					"http.Error bypasses the JSON error envelope; refuse via WriteError (code, Retry-After, traceId)")
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
				return
			}
			tv := pass.TypesInfo.Types[call.Args[0]]
			if tv.Value == nil || tv.Value.Kind() != constant.Int {
				return
			}
			status, ok := constant.Int64Val(tv.Value)
			if !ok || status < 400 {
				return
			}
			if envelopeFunnels[enclosingFuncName(stack)] {
				return
			}
			pass.Reportf(call.Pos(),
				"bare WriteHeader(%d) outside the envelope funnel; refuse via WriteError so the JSON error contract stays total", status)
		})
	}
	return nil
}
