// Package dep declares exported API in every state of use for the testonly
// analyzer's testdata; packages testonly and testonly/main are its only
// non-test users.
package dep

// Used is called from package testonly.
func Used() int { return helper() }

// helper is unexported, so it is never reported.
func helper() int { return 1 }

// MainOnly is called only from a package main, which still counts.
func MainOnly() int { return 2 }

// Unused calls itself, which does not count as a use.
func Unused() int { return Unused() } // want `dep\.Unused has no non-test reference`

// Knob is read by no one.
var Knob = 3 // want `dep\.Knob has no non-test reference`

// Limit is read from package testonly.
const Limit = 4

// Orphan is named only by its own field and its own method's receiver.
type Orphan struct{ next *Orphan } // want `dep\.Orphan has no non-test reference`

// Detach has no caller.
func (o *Orphan) Detach() { o.next = nil } // want `dep\.Orphan\.Detach has no non-test reference`

// T is used from package testonly.
type T struct{}

// Vanish has no caller.
func (T) Vanish() {} // want `dep\.T\.Vanish has no non-test reference`

// Quack is reached through testonly's quacker interface.
func (T) Quack() {}

// Unwrap is reached by errors.Unwrap through an anonymous interface.
func (T) Unwrap() error { return nil }
