// Package analysis is the project's invariant-enforcing static
// analysis suite: a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver surface (the real module is
// not vendored; the build must stay offline-clean) plus five analyzers
// that encode the repo's documented invariants at analysis time
// instead of re-measuring them per seed in property tests:
//
//   - detrand: trace-affecting packages must not draw from global
//     math/rand, read the wall clock, or let map iteration order flow
//     into slices or encoded output without a deterministic sort
//     (DESIGN.md §4, §16: exact transformations only).
//   - wallclock: the observability layer is the inverse — spans are
//     wall-clocked with time.Now and must never touch the manager's
//     injectable clock (nowFn) or a session RNG stream.
//   - errenvelope: every HTTP refusal in the serving layer goes
//     through the JSON error-envelope funnel (DESIGN.md §15); no bare
//     http.Error or constant 4xx/5xx WriteHeader outside it.
//   - lockdiscipline: struct fields annotated "guarded by mu" may only
//     be accessed with that mutex held (intraprocedural, path-merged).
//   - unreached: the one whole-program pass — every package-level
//     declaration is reachable from a main, an init or a *test support
//     package's exported API;
//     nothing ships that only tests run (DESIGN.md §18).
//
// Every analyzer honors an audited escape hatch: a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above suppresses the diagnostic; a
// directive with no reason is itself a diagnostic, so suppressions
// stay reviewable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer so the checks could migrate
// to the real driver wholesale if the dependency ever lands.
type Analyzer struct {
	// Name is the analyzer's identifier: the multichecker flag, the
	// diagnostic prefix, and the token //lint:allow directives name.
	Name string
	// Doc is the one-paragraph help text.
	Doc string
	// Run analyzes one package and reports findings via pass.Reportf.
	Run func(*Pass) error
	// Program marks a whole-program analyzer: Run is called once, with
	// Pass.Program holding every loaded package and the per-package
	// fields unset.
	Program bool
}

// Pass carries one analyzer's view of one type-checked package, or —
// for a whole-program analyzer — of all of them.
type Pass struct {
	Analyzer *Analyzer
	// Program is every package handed to Run.
	Program []*Package
	Fset    *token.FileSet
	// Files holds the package's parsed sources, comments included.
	Files []*ast.File
	// Pkg is the type-checked package (import path per the build
	// system, or the declared path for test fixtures).
	Pkg *types.Package
	// TypesInfo records the type-checker's object resolution: Uses,
	// Defs, Types and Selections are populated.
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned for editor navigation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an already-resolved position; a
// whole-program pass has one FileSet per package and resolves its own.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to the packages — per-package analyzers to
// each in turn, whole-program ones once over all of them — and returns
// the surviving diagnostics: findings suppressed by a well-formed
// //lint:allow directive are dropped, and malformed directives (no
// reason, or no analyzer name) are reported as findings themselves.
// Diagnostics come back sorted by position for stable output.
func Run(analyzers []*Analyzer, pkgs ...*Package) []Diagnostic {
	allow := collectAllows(pkgs)
	var out []Diagnostic
	for _, a := range analyzers {
		targets := pkgs
		if a.Program {
			targets = []*Package{{}} // one pass, per-package fields unset
		}
		for _, pkg := range targets {
			pass := &Pass{
				Analyzer:  a,
				Program:   pkgs,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			if err := a.Run(pass); err != nil {
				out = append(out, Diagnostic{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
				continue
			}
			for _, d := range pass.diags {
				if !allow.covers(d) {
					out = append(out, d)
				}
			}
		}
	}
	out = append(out, allow.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// allowDirective is the parsed form of one //lint:allow comment.
const allowPrefix = "lint:allow"

// allowSet indexes //lint:allow directives by file and line. A
// directive covers findings by the named analyzer on its own line and
// on the line immediately below (the "comment above the statement"
// idiom).
type allowSet struct {
	byLine    map[string]map[int]map[string]bool // file -> line -> analyzer set
	malformed []Diagnostic
}

func collectAllows(pkgs []*Package) *allowSet {
	s := &allowSet{byLine: make(map[string]map[int]map[string]bool)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//"+allowPrefix)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 2 {
						s.malformed = append(s.malformed, Diagnostic{
							Pos:      pos,
							Analyzer: "lintdirective",
							Message:  "malformed //lint:allow directive: want \"//lint:allow <analyzer> <reason>\"",
						})
						continue
					}
					name := fields[0]
					lines := s.byLine[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						s.byLine[pos.Filename] = lines
					}
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						set := lines[ln]
						if set == nil {
							set = make(map[string]bool)
							lines[ln] = set
						}
						set[name] = true
					}
				}
			}
		}
	}
	return s
}

func (s *allowSet) covers(d Diagnostic) bool {
	return s.byLine[d.Pos.Filename][d.Pos.Line][d.Analyzer]
}

// pathHasSuffix reports whether an import path ends with one of the
// given slash-separated suffixes ("internal/gibbs" matches both the
// real package and a fixture type-checked under a declared path).
func pathHasSuffix(path string, suffixes []string) bool {
	for _, suf := range suffixes {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}
