package lint

import "testing"

// TestRunSuiteCleanOnRepo runs the whole analyzer suite over the module,
// mirroring `make lint`: the repo must stay violation-free, so tier1's test
// target enforces the invariants even where the lint target isn't wired in.
func TestRunSuiteCleanOnRepo(t *testing.T) {
	diags, err := RunSuite(moduleRoot(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("lint violation: %s", d)
	}
}

func TestRunSuiteOnlyFilter(t *testing.T) {
	diags, err := RunSuite(moduleRoot(t), map[string]bool{"testonly": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("testonly-only run found %d diagnostics: %v", len(diags), diags)
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		path  string
		scope []string
		want  bool
	}{
		{"inca/internal/iau", nil, true},
		{"inca/internal/iau", []string{"inca/internal/iau"}, true},
		{"inca/internal/iau/sub", []string{"inca/internal/iau"}, true},
		{"inca/internal/iauX", []string{"inca/internal/iau"}, false},
		{"inca/cmd/inca-sim", []string{"inca/internal/iau"}, false},
	}
	for _, c := range cases {
		if got := inScope(c.path, c.scope); got != c.want {
			t.Errorf("inScope(%q, %v) = %v, want %v", c.path, c.scope, got, c.want)
		}
	}
}
