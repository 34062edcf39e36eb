// Package isa is a miniature double of the stream container: the stamped
// response bound may be handled raw only inside the owning package and the
// audited readers.
package isa

// Program is the compiled-stream double; ResponseBound mirrors the real
// field's untrusted-until-verified status.
type Program struct {
	Name          string
	ResponseBound uint64
}

// Bounded is the owner-side read: package isa is exempt from boundtrust.
func (p *Program) Bounded() bool { return p.ResponseBound > 0 }

// Link has no non-test caller, but the testonly allowlist names isa.Link.
func Link() {}
