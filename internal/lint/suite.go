package lint

import (
	"fmt"
	"strings"
)

// ScopedAnalyzer binds an analyzer to the part of the module it patrols.
type ScopedAnalyzer struct {
	*Analyzer
	// Scope lists import-path prefixes the analyzer runs on; empty means
	// every module package. Scoping lives here — not in Analyzer.Run — so
	// the analysistest harness can aim an analyzer at arbitrary testdata.
	Scope []string
}

// Suite is the repo's analyzer lineup, in the order the driver runs and
// documents them (DESIGN.md §12).
var Suite = []ScopedAnalyzer{
	// Determinism patrols the simulation core: every package whose output
	// feeds the encoders, the trace ring, or the DDR image. CLI front-ends
	// and the benchmark harness may still read the wall clock.
	{Determinism, []string{
		"inca/internal/golden",
		"inca/internal/verify",
		"inca/internal/trace",
		"inca/internal/isa",
		"inca/internal/iau",
		"inca/internal/accel",
		"inca/internal/sched",
		// The batched datapath made these stream-shaping too: the compiler's
		// batch scheduler decides LOAD_W amortization and VI placement, and
		// core.InferBatch owns per-element arena layout. Both must replay
		// bit-exactly, so they patrol with the sim core.
		"inca/internal/compiler",
		"inca/internal/core",
		// The cost table prices every stream for the compiler's placement,
		// the stamped bound and each scheduling decision.
		"inca/internal/cost",
		// The EngineCluster dispatcher places, migrates, and sheds tasks;
		// its same-seed reports must be byte-identical, so it patrols too.
		"inca/internal/cluster",
		// CLI front-ends replay the same deterministic runs the tests pin
		// (inca-sim timelines, inca-serve stats, inca-vet verdicts), so
		// they patrol too; only internal/bench may read the wall clock.
		"inca/cmd",
	}},
	{TraceGuard, nil},
	{ClockOwner, nil},
	{Pairing, nil},
	{TestOnly, nil},
	// LockDiscipline patrols the packages where single-threadedness is the
	// determinism mechanism itself: one goroutine owns the event loop.
	// internal/accel is deliberately absent — its shard worker pool is the
	// one audited concurrency site, and this scope keeps it that way.
	{LockDiscipline, []string{
		"inca/internal/golden",
		"inca/internal/verify",
		"inca/internal/trace",
		"inca/internal/isa",
		"inca/internal/iau",
		"inca/internal/sched",
		"inca/internal/compiler",
		"inca/internal/core",
		"inca/internal/cost",
		"inca/internal/cluster",
		"inca/internal/progcheck",
	}},
	// BoundTrust runs everywhere: the audited-reader exemption lives in the
	// analyzer itself so the diagnostic can name the list to join.
	{BoundTrust, nil},
}

// inScope reports whether path falls under any of the prefixes.
func inScope(path string, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, p := range scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// RunSuite loads every package in the module rooted at moduleDir and runs
// the full analyzer suite, returning all findings sorted by position.
func RunSuite(moduleDir string, only map[string]bool) ([]Diagnostic, error) {
	l, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	paths, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			// A half-typed package would be half-linted; the build target
			// runs first in tier1, so this only fires on real breakage.
			return nil, fmt.Errorf("lint: %s does not type-check: %v", p, pkg.TypeErrors[0])
		}
		pkgs = append(pkgs, pkg)
	}
	var all []Diagnostic
	for _, sa := range Suite {
		if only != nil && !only[sa.Name] {
			continue
		}
		var scoped []*Package
		for _, pkg := range pkgs {
			if inScope(pkg.Path, sa.Scope) {
				scoped = append(scoped, pkg)
			}
		}
		diags, err := Run(sa.Analyzer, scoped, l.Index())
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	SortDiagnostics(all)
	return all, nil
}
