package lint_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"inca/internal/lint"
	"inca/internal/lint/linttest"
)

func testdataDir(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller information")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.Determinism, "determinism")
}

func TestTraceGuard(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.TraceGuard, "traceguard")
}

func TestClockOwner(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.ClockOwner, "clockowner")
}

func TestPairing(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.Pairing, "pairing")
}

func TestTestOnly(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.TestOnly, "dep", "isa", "testonly", "testonly/main", "testonly/helper")
}

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.LockDiscipline, "lockdiscipline")
}

func TestBoundTrust(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.BoundTrust, "boundtrust")
}

// TestGuardedPackagesStayQuiet proves the analyzers do not fire on the fake
// subsystem packages themselves (the declaring packages own their receiver
// discipline).
func TestGuardedPackagesStayQuiet(t *testing.T) {
	linttest.Run(t, testdataDir(t), lint.TraceGuard, "trace", "fault")
	linttest.Run(t, testdataDir(t), lint.ClockOwner, "iau")
	linttest.Run(t, testdataDir(t), lint.BoundTrust, "isa")
}
