package lint

import (
	"path/filepath"
	"runtime"
	"testing"
)

// moduleRoot locates the repository root from this test file's position.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller information")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func TestLoadModulePackage(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("inca/internal/iau")
	if err != nil {
		t.Fatal(err)
	}
	if !pkg.Analyzed {
		t.Error("module package should be marked analyzed")
	}
	if pkg.Info == nil {
		t.Error("module package should carry type-checking info")
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("unexpected type error: %v", e)
	}
	iauType := pkg.Types.Scope().Lookup("IAU")
	if iauType == nil {
		t.Fatal("IAU type not resolved")
	}
	// A stdlib dependency must have resolved signatures-only.
	dep := l.Index()["hash/crc32"]
	if dep == nil {
		t.Fatal("hash/crc32 not loaded as a dependency")
	}
	if dep.Analyzed {
		t.Error("stdlib dependency should not be marked analyzed")
	}
	if dep.Types.Scope().Lookup("Checksum") == nil {
		t.Error("hash/crc32.Checksum not resolved")
	}
}

func TestModulePackagesEnumeration(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"inca/internal/iau":     false,
		"inca/internal/trace":   false,
		"inca/internal/lint":    false,
		"inca/cmd/inca-compile": false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("package %s not enumerated (got %v)", p, paths)
		}
	}
}
