// Package helper imports testing, so it is a test helper by construction:
// its exports are API to tests and are never reported.
package helper

import "testing"

// Check has no non-test caller.
func Check(t *testing.T) { t.Helper() }
