package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unreached is the package census as a gate: every package-level
// declaration (function, method, type, variable, constant) must be
// reachable, through the identifiers its source mentions, from a root.
// Roots are what runs without any _test.go file, and nothing else:
//
//   - main of every main package, and every init and blank declaration;
//   - the exported declarations of *test support packages
//     (analysistest), with the exported methods of the types they
//     declare or alias: their callers are tests by construction.
//
// A library package, inside internal/ or not, roots nothing: the
// served contract is /v1 and the paper's reproduction is a command, so
// there is no Go-level API for an exported name to be kept alive by.
//
// Test files are never loaded, so a declaration only tests use is
// unreached: it is deleted, or moved into the _test.go that needs it.
// Packages are type-checked separately (an imported object and its
// source declaration are different types.Objects), so the graph is
// keyed by "pkgpath.Name" / "pkgpath.Recv.Method". Dynamic dispatch is
// matched conservatively by name: a method named like any interface
// method the module declares or imports is live once its receiver type
// is.
var Unreached = &Analyzer{
	Name: "unreached",
	Doc: "every package-level declaration is reachable from a main package, an init or the exported API of a " +
		"*test support package; what only tests reach is deleted or moved beside them",
	Run:     runUnreached,
	Program: true,
}

// decl is one node of the reference graph.
type decl struct {
	pos  token.Position
	what string   // "func", "method", "type", "var" or "const"
	name string   // as written, "Recv.Method" for methods
	recv string   // key of the receiver type; "" unless a method
	uses []string // keys of the package-level objects and methods the source mentions
}

// objKey names a package-level object or a method of a named type
// independently of which type-check produced it; "" for anything else
// (locals, fields, universe and interface-literal methods).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := types.Unalias(recv.Type())
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			if named, ok := t.(*types.Named); ok {
				return objKey(named.Obj()) + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func runUnreached(pass *Pass) error {
	nodes := map[string]*decl{}
	methods := map[string][]string{} // type key -> method keys
	// Seeded with what no scanned scope declares: the universe's error,
	// and the anonymous interfaces package errors probes for.
	ifaceNames := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	var roots []string

	for _, pkg := range pass.Program {
		info := pkg.TypesInfo
		usesOf := func(n ast.Node) []string {
			var keys []string
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if k := objKey(info.Uses[id]); k != "" {
						keys = append(keys, k) // a key outside the program names no node
					}
				}
				return true
			})
			return keys
		}
		addIface := func(t types.Type) {
			if it, ok := t.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
		for _, p := range slices.Concat(pkg.Types.Imports(), []*types.Package{pkg.Types}) {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for expr, tv := range info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}

		isMain := pkg.Types.Name() == "main"
		isTestSupport := !isMain && strings.HasSuffix(pkg.Types.Name(), "test")
		add := func(id *ast.Ident, what string, src ast.Node) {
			uses := usesOf(src)
			if what != "method" && (id.Name == "_" || id.Name == "init" || isMain && id.Name == "main") {
				roots = append(roots, uses...)
				return
			}
			obj := info.Defs[id]
			key := objKey(obj)
			n := &decl{pos: pkg.Fset.Position(id.Pos()), what: what, name: id.Name, uses: uses}
			if what == "method" {
				n.recv = key[:strings.LastIndex(key, ".")]
				n.name = n.recv[strings.LastIndex(n.recv, ".")+1:] + "." + id.Name
				methods[n.recv] = append(methods[n.recv], key)
			}
			nodes[key] = n
			if !isTestSupport || !id.IsExported() {
				return
			}
			roots = append(roots, key)
			if tn, ok := obj.(*types.TypeName); ok {
				ms := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
				for i := 0; i < ms.Len(); i++ {
					if m := ms.At(i).Obj(); m.Exported() {
						roots = append(roots, objKey(m))
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					what := "func"
					if d.Recv != nil {
						what = "method"
					}
					add(d.Name, what, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, "type", s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, d.Tok.String(), s)
							}
						}
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	work := roots
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		n := nodes[key]
		if n == nil || reached[key] {
			continue
		}
		reached[key] = true
		work = append(work, n.uses...)
		for _, m := range methods[key] {
			if ifaceNames[m[strings.LastIndex(m, ".")+1:]] {
				work = append(work, m)
			}
		}
	}
	for key, n := range nodes {
		// An unreached type is one finding; its methods go with it.
		if reached[key] || n.recv != "" && !reached[n.recv] {
			continue
		}
		pass.ReportAt(n.pos, "%s %s is reached by no main, init or test-support root: only tests can use it — "+
			"delete it, or move it into the _test.go that needs it", n.what, n.name)
	}
	return nil
}
