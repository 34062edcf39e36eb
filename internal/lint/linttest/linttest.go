// Package linttest is the repo's analysistest: it loads analyzer testdata
// laid out GOPATH-style (testdata/src/<importpath>/...), runs one analyzer
// over the named packages, and matches the diagnostics against `// want`
// comments in the source.
//
// Expectation syntax follows x/tools analysistest: a comment on the
// offending line of the form
//
//	code() // want "regexp"
//	code() // want "first" "second"
//	code() // want `raw string regexp`
//
// Every diagnostic must be matched by an expectation on its line, and every
// expectation must be consumed by a diagnostic; both directions fail the
// test, so golden files prove an analyzer fires and prove it stays quiet.
package linttest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"inca/internal/lint"
)

// expectation is one `// want` pattern awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads each package path under testdataDir/src, applies the analyzer,
// and checks diagnostics against the packages' want comments.
func Run(t *testing.T, testdataDir string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	loader := lint.NewTestLoader(filepath.Join(testdataDir, "src"))
	var pkgs []*lint.Package
	for _, path := range pkgPaths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, te := range pkg.TypeErrors {
			t.Errorf("%s: testdata must type-check: %v", path, te)
		}
		pkgs = append(pkgs, pkg)
	}
	if t.Failed() {
		t.FailNow()
	}
	diags, err := lint.Run(a, pkgs, loader.Index())
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	expects := collectWants(t, pkgs)
	for _, d := range diags {
		if !consume(expects, d) {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
				a.Name, e.file, e.line, e.pattern)
		}
	}
}

// consume marks the first unmatched expectation on the diagnostic's line
// whose pattern matches the message.
func consume(expects []*expectation, d lint.Diagnostic) bool {
	for _, e := range expects {
		if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
			continue
		}
		if e.pattern.MatchString(d.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

// wantRE matches the expectation clause of a comment; the patterns
// themselves are extracted by patternRE to allow several per line.
var (
	wantRE    = regexp.MustCompile(`//\s*want\s+(.*)$`)
	patternRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

// collectWants parses every want comment in the packages under test.
func collectWants(t *testing.T, pkgs []*lint.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					out = append(out, parseWant(t, pkg, c)...)
				}
			}
		}
	}
	return out
}

func parseWant(t *testing.T, pkg *lint.Package, c *ast.Comment) []*expectation {
	t.Helper()
	m := wantRE.FindStringSubmatch(c.Text)
	if m == nil {
		return nil
	}
	pos := pkg.Fset.Position(c.Pos())
	var out []*expectation
	for _, pm := range patternRE.FindAllStringSubmatch(m[1], -1) {
		text := pm[1]
		if pm[2] != "" || text == "" {
			// Quoted form: undo the escaping the comment syntax required.
			text = strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(pm[2])
		}
		re, err := regexp.Compile(text)
		if err != nil {
			t.Fatalf("%s: bad want pattern %q: %v", pos, text, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no patterns: %s", pos, c.Text)
	}
	return out
}
