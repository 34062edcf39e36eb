package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Loader parses and type-checks packages from source. Module packages (and,
// in tests, packages under a testdata root) are loaded with full
// type-checking Info; standard-library dependencies are loaded
// signatures-only (function bodies ignored), which keeps a whole-repo lint
// pass fast while still resolving every cross-package reference the
// analyzers care about.
//
// The loader exists because the build environment has no module proxy: it
// resolves `inca/...` imports inside the module tree and everything else
// under GOROOT/src, with build-tag file selection delegated to go/build.
type Loader struct {
	Fset *token.FileSet

	// ModulePath / ModuleDir anchor `inca/...` import resolution.
	ModulePath string
	ModuleDir  string

	// TestdataRoot, when set, resolves imports there before GOROOT — the
	// linttest harness points it at an analyzer's testdata/src tree.
	TestdataRoot string

	ctx     build.Context
	pkgs    map[string]*Package
	loading map[string]bool
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading module file: %w", err)
	}
	m := moduleRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", moduleDir)
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: string(m[1]),
		ModuleDir:  moduleDir,
		ctx:        build.Default,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	// Source-level loading cannot expand cgo; every stdlib package in this
	// repo's closure has a pure-Go fallback, which this selects.
	l.ctx.CgoEnabled = false
	return l, nil
}

// NewTestLoader creates a loader whose non-stdlib imports resolve under
// testdataRoot (analysistest-style GOPATH layout: testdataRoot/<path>).
func NewTestLoader(testdataRoot string) *Loader {
	l := &Loader{
		Fset:         token.NewFileSet(),
		TestdataRoot: testdataRoot,
		ctx:          build.Default,
		pkgs:         make(map[string]*Package),
		loading:      make(map[string]bool),
	}
	l.ctx.CgoEnabled = false
	return l
}

// Index returns the loaded packages keyed by import path.
func (l *Loader) Index() map[string]*Package { return l.pkgs }

// ModulePackages walks the module tree and returns the import paths of
// every buildable package (skipping testdata, hidden, and VCS directories).
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.Walk(l.ModuleDir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := l.ctx.ImportDir(path, 0); err != nil {
			return nil // no buildable Go files here; keep walking
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// dirFor maps an import path to the directory holding its source, and
// reports whether the package should be analyzed (full Info) or treated as
// a signatures-only dependency.
func (l *Loader) dirFor(path string) (dir string, analyzed bool, err error) {
	if l.TestdataRoot != "" {
		d := filepath.Join(l.TestdataRoot, filepath.FromSlash(path))
		if fi, statErr := os.Stat(d); statErr == nil && fi.IsDir() {
			return d, true, nil
		}
	}
	if l.ModulePath != "" && (path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), true, nil
	}
	d := filepath.Join(l.ctx.GOROOT, "src", filepath.FromSlash(path))
	if fi, statErr := os.Stat(d); statErr == nil && fi.IsDir() {
		return d, false, nil
	}
	return "", false, fmt.Errorf("lint: cannot resolve import %q", path)
}

// Load parses and type-checks the package at the import path (and,
// recursively, everything it imports).
func (l *Loader) Load(path string) (*Package, error) {
	if path == "unsafe" {
		p := &Package{Path: path, Name: "unsafe", Fset: l.Fset, Types: types.Unsafe}
		l.pkgs[path] = p
		return p, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, analyzed, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: scanning %s: %w", dir, err)
	}
	pkg := &Package{Path: path, Fset: l.Fset, Analyzed: analyzed}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	pkg.Name = pkg.Files[0].Name.Name

	cfg := types.Config{
		Importer:         (*loaderImporter)(l),
		IgnoreFuncBodies: !analyzed,
		Sizes:            types.SizesFor("gc", l.ctx.GOARCH),
		Error:            func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	if analyzed {
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	tpkg, err := cfg.Check(path, l.Fset, pkg.Files, pkg.Info)
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	// Type errors inside the package are tolerated (collected on the
	// Package); a missing import is not, because downstream resolution
	// would cascade into noise.
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter adapts the loader to types.Importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	p, err := (*Loader)(li).Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

var _ types.Importer = (*loaderImporter)(nil)
