// Package testonly is a non-test user of dep and isa.
package testonly

import (
	"dep"
	"isa"
)

type quacker interface{ Quack() }

var _ quacker = dep.T{}

func use() int {
	if (&isa.Program{}).Bounded() {
		return dep.Used()
	}
	return dep.Limit
}
