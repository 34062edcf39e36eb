// Package lint implements the repository's custom static analyzers: the
// determinism, tracing, and cycle-accounting invariants that the golden
// interpreter, the equivalence fuzzer, and the trace validator enforce
// dynamically are encoded here as compile-time checks, so a violation fails
// `make lint` (part of tier1) before a fuzz seed ever has to find it.
//
// The package is self-contained on the standard library: analyzers follow
// the golang.org/x/tools/go/analysis shape (Analyzer / Pass / Reportf) so
// they could be ported to a real multichecker later, but the driver, the
// package loader, and the analysistest-style harness are all implemented
// over go/parser + go/types directly, because the build environment has no
// module proxy access.
//
// DESIGN.md §12 maps each analyzer to the dynamic check it front-runs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. It mirrors the x/tools analysis.Analyzer
// surface the repo would use if the dependency were available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the one-paragraph description `inca-lint -help` prints.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Name  string // package name
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info // nil for dependency (stdlib) packages

	// Analyzed marks packages that belong to the module (or the test
	// harness's testdata tree) rather than the standard library; only these
	// carry full type-checking Info and receive analyzer passes.
	Analyzed bool

	// TypeErrors collects type-checking problems that did not prevent the
	// load. Analyzers run on a best-effort AST/type view; the driver
	// surfaces these so a broken build is never silently half-linted.
	TypeErrors []error
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// All indexes every loaded package by import path, so analyzers can
	// consult declarations outside the package under analysis (the
	// traceguard nil-safety fixpoint reads the trace package's method
	// bodies, wherever the pass currently is).
	All map[string]*Package

	diags *[]Diagnostic
	// index is shared by every pass of one Run, so the module-wide facts
	// testonly needs are derived from All once, not once per package.
	index *moduleIndex
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf resolves the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf resolves the object an identifier uses or defines, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	if o := p.Pkg.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Run executes the analyzer over the given packages and returns the
// findings sorted by position. Packages that are not Analyzed are skipped.
func Run(a *Analyzer, pkgs []*Package, all map[string]*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	index := new(moduleIndex)
	for _, pkg := range pkgs {
		if !pkg.Analyzed {
			continue
		}
		pass := &Pass{Analyzer: a, Pkg: pkg, All: all, diags: &diags, index: index}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders findings by file, line, column, analyzer — the
// deterministic order the driver prints and the tests compare against.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
