package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TestOnly reports exported API that only tests reach. The loader parses
// non-test files only, so an exported package-level func, type, var or const,
// or an exported method, that no loaded file references is kept alive by its
// own tests alone: every form the repo keeps is paid for at each later
// change, so such code is deleted with its tests or earns an allowlist entry.
// The CLIs and the benchmark harness are module packages and count as users.
//
// Never reported: declarations in package main; the exports of a package
// whose non-test files import "testing" (a test helper by construction, like
// linttest); methods whose name some interface type in a loaded package
// declares (flag.Value.Set, heap.Interface.Less, json.Marshaler, error, ...),
// which are reached by dynamic dispatch; and Unwrap/Is/As, which the errors
// package calls through anonymous interfaces.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "exported API needs a non-test reference in the module (cmd/ and benchmark/ count)",
	Run:  runTestOnly,
}

// testOnlyAllow is the allowlist, keyed "pkg.Name" or "pkg.Type.Method". An
// entry must meet one of three criteria, named in its reason:
//
//	(i)   test-harness API of internal/verify or of the golden oracle (the
//	      golden interpreter and the quantized reference it is checked
//	      against);
//	(ii)  a fixture network that tests in two or more packages share;
//	(iii) isa.Link, the Fig. 3 per-slot offset registers that progcheck's
//	      linked-program test and DESIGN.md §5 invariants 1 and 3 exercise.
var testOnlyAllow = map[string]string{
	"verify.NewCase":         "(i) builds one fuzz/regression case from a seed",
	"verify.Case.Repro":      "(i) prints the Go literal that replays a failing case",
	"verify.Minimize":        "(i) shrinks a failing case before it is reported",
	"verify.Mutations":       "(i) seeded single-instruction mutants for the progcheck gate",
	"quant.Network.RunFinal": "(i) the quantized reference output golden and every functional test compare against",
	"model.NewResNetTiny":    "(ii) residual fixture shared by accel, compiler, golden, iau, isa, quant and slam tests",
	"model.NewMobileNetTiny": "(ii) depthwise fixture shared by accel, compiler, golden and iau tests",
	"model.NewPoolNet":       "(ii) pooling fixture shared by accel, compiler, golden, iau and quant tests",
	"isa.Link":               "(iii) Fig. 3 per-slot offset registers",
}

// errorsMethods are called by errors.Is/As/Unwrap through interface
// literals no package scope declares.
var errorsMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// moduleIndex is what testonly derives from the whole load: every object a
// loaded non-test file references, and every method name an interface type
// in a loaded package declares. Run shares one across a run's passes and the
// first pass builds it.
type moduleIndex struct {
	refs         map[types.Object]bool
	ifaceMethods map[string]bool
}

func (x *moduleIndex) build(all map[string]*Package) {
	if x.refs != nil {
		return
	}
	x.refs = make(map[types.Object]bool)
	x.ifaceMethods = make(map[string]bool)
	for _, pkg := range all {
		if pkg.Types != nil {
			collectIfaceMethods(pkg.Types.Scope(), x.ifaceMethods)
		}
		if !pkg.Analyzed || pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				collectRefs(pkg.Info, decl, x.refs)
			}
		}
	}
}

func collectIfaceMethods(scope *types.Scope, into map[string]bool) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				into[it.Method(i).Name()] = true
			}
		}
	}
}

// collectRefs adds every object decl references, except references to what
// decl itself declares (recursion, self-referential types) and a method's
// receiver type, so a type's own methods do not keep it alive.
func collectRefs(info *types.Info, decl ast.Decl, into map[types.Object]bool) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := info.Defs[d.Name]
		walkRefs(info, d.Type, into, self)
		if d.Body != nil {
			walkRefs(info, d.Body, into, self)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				walkRefs(info, sp, into, info.Defs[sp.Name])
			case *ast.ValueSpec:
				var self []types.Object
				for _, n := range sp.Names {
					self = append(self, info.Defs[n])
				}
				walkRefs(info, sp, into, self...)
			}
		}
	}
}

func walkRefs(info *types.Info, root ast.Node, into map[types.Object]bool, self ...types.Object) {
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := origin(info.Uses[id])
		if obj == nil {
			return true
		}
		for _, s := range self {
			if obj == s {
				return true
			}
		}
		into[obj] = true
		return true
	})
}

// origin maps an instantiated generic function or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func runTestOnly(pass *Pass) error {
	if pass.Pkg.Info == nil || pass.Pkg.Name == "main" || importsTesting(pass.Pkg) {
		return nil
	}
	pass.index.build(pass.All)
	report := func(id *ast.Ident, key string) {
		obj := pass.Pkg.Info.Defs[id]
		if obj == nil || pass.index.refs[obj] {
			return
		}
		if _, ok := testOnlyAllow[key]; ok {
			return
		}
		pass.Reportf(id.Pos(), "%s has no non-test reference in the module; delete it with its tests, or allowlist it with its criterion (internal/lint/testonly.go)", key)
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					report(d.Name, pass.Pkg.Name+"."+d.Name.Name)
					continue
				}
				if pass.index.ifaceMethods[d.Name.Name] || errorsMethods[d.Name.Name] {
					continue
				}
				fn, ok := pass.Pkg.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				report(d.Name, namedTypeKey(fn.Type().(*types.Signature).Recv().Type())+"."+d.Name.Name)
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							report(sp.Name, pass.Pkg.Name+"."+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								report(n, pass.Pkg.Name+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// importsTesting reports whether any of the package's non-test files imports
// "testing": such a package is a test helper, and its exports are its API to
// tests.
func importsTesting(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"testing"` {
				return true
			}
		}
	}
	return false
}
