// Command main is the only user of dep.MainOnly.
package main

import "dep"

// Exported has no caller, but package main is never reported.
func Exported() {}

func main() { _ = dep.MainOnly() }
