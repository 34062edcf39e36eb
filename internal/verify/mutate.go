package verify

import (
	"inca/internal/isa"
	"inca/internal/progcheck"
)

// This file seeds single-instruction corruptions into known-good compiled
// streams and declares, per corruption, which progcheck diagnostic classes
// may legitimately fire. It is the negative half of the static-verifier
// contract: TestProgcheckCorpus proves the checker accepts everything the
// compiler emits, TestProgcheckMutations proves it rejects every one of
// these, with the right classification.

// cloneProgram deep-copies a program so a mutation never aliases the
// original's slices.
func cloneProgram(p *isa.Program) *isa.Program {
	q := *p
	q.Layers = append([]isa.LayerInfo(nil), p.Layers...)
	q.Instrs = append([]isa.Instruction(nil), p.Instrs...)
	q.Weights = append([]byte(nil), p.Weights...)
	return &q
}

// Mutation is one deterministic stream corruption plus its verdict contract.
type Mutation struct {
	Name string
	// Expect is the set of classes the verifier may report. The mutation is
	// caught when the report is non-clean and every reported class is in
	// this set (a corruption must not be misfiled under an unrelated
	// invariant).
	Expect []progcheck.Class
	// Exact marks corruptions invisible to every structural pass: the
	// report must consist solely of response-bound findings, proving the
	// independent re-derivation — and nothing else — catches a forged
	// bound.
	Exact bool
	// Apply corrupts p in place, returning false when the program offers no
	// site for this mutation (e.g. a weight refetch in an unbatched plan).
	Apply func(p *isa.Program) bool
}

func dropAt(p *isa.Program, i int) {
	p.Instrs = append(p.Instrs[:i:i], p.Instrs[i+1:]...)
}

func findInstr(p *isa.Program, pred func(isa.Instruction) bool) int {
	for i, in := range p.Instrs {
		if pred(in) {
			return i
		}
	}
	return -1
}

// virSaveLeaders returns the indices of Vir_SAVE instructions that lead a
// restore group with at least one member.
func virSaveLeaders(p *isa.Program) []int {
	var out []int
	for i, in := range p.Instrs {
		if in.Op == isa.OpVirSave && i+1 < len(p.Instrs) && p.Instrs[i+1].Op == isa.OpVirLoadD {
			out = append(out, i)
		}
	}
	return out
}

// Mutations is the corpus of seeded corruptions, one per invariant the
// verifier claims to prove. Names are stable (the fuzz target indexes them).
func Mutations() []Mutation {
	return []Mutation{
		{
			// Truncating the stream kills the END sentinel: isa validation.
			Name:   "drop-end",
			Expect: []progcheck.Class{progcheck.ClassStructure},
			Apply: func(p *isa.Program) bool {
				if n := len(p.Instrs); n > 0 && p.Instrs[n-1].Op == isa.OpEnd {
					dropAt(p, n-1)
					return true
				}
				return false
			},
		},
		{
			Name:   "layer-oob",
			Expect: []progcheck.Class{progcheck.ClassStructure},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op != isa.OpEnd })
				if i < 0 {
					return false
				}
				p.Instrs[i].Layer = uint16(len(p.Layers))
				return true
			},
		},
		{
			Name:   "opcode-invalid",
			Expect: []progcheck.Class{progcheck.ClassStructure},
			Apply: func(p *isa.Program) bool {
				if len(p.Instrs) == 0 {
					return false
				}
				p.Instrs[0].Op = isa.Op(200)
				return true
			},
		},
		{
			// A load whose scattered read extent leaves the arena.
			Name:   "load-addr-oob",
			Expect: []progcheck.Class{progcheck.ClassBounds},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpLoadD && in.Rows > 0 })
				if i < 0 {
					return false
				}
				p.Instrs[i].Addr = p.DDRBytes
				return true
			},
		},
		{
			Name:   "save-addr-oob",
			Expect: []progcheck.Class{progcheck.ClassBounds},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpSave && in.Rows > 0 })
				if i < 0 {
					return false
				}
				p.Instrs[i].Addr = p.DDRBytes
				return true
			},
		},
		{
			// Length no longer matches the declared plane geometry. The
			// extra byte also perturbs the modeled transfer time, so the
			// bound re-derivation may disagree too.
			Name:   "load-len-skew",
			Expect: []progcheck.Class{progcheck.ClassLayout, progcheck.ClassBound},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpLoadD && in.Rows > 0 })
				if i < 0 {
					return false
				}
				p.Instrs[i].Len++
				return true
			},
		},
		{
			// Weight fetch one byte off the independently derived blob
			// placement (or, if the image sits at the arena's end, past it).
			Name:   "weight-addr-skew",
			Expect: []progcheck.Class{progcheck.ClassLayout, progcheck.ClassBounds},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpLoadW })
				if i < 0 {
					return false
				}
				p.Instrs[i].Addr++
				return true
			},
		},
		{
			// The first CALC now runs with no weights loaded; the missing
			// transfer also shortens the modeled stream.
			Name:   "drop-loadw",
			Expect: []progcheck.Class{progcheck.ClassState, progcheck.ClassBound},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpLoadW })
				if i < 0 {
					return false
				}
				dropAt(p, i)
				return true
			},
		},
		{
			Name:   "drop-loadd",
			Expect: []progcheck.Class{progcheck.ClassState, progcheck.ClassBound},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpLoadD && in.Rows > 0 })
				if i < 0 {
					return false
				}
				dropAt(p, i)
				return true
			},
		},
		{
			// Element 0's rows loaded into element 1's plane address check:
			// the batch-isolation proof. Picks the stream's first load, which
			// precedes every interrupt point.
			Name:   "batch-cross",
			Expect: []progcheck.Class{progcheck.ClassLayout},
			Apply: func(p *isa.Program) bool {
				if p.BatchN() < 2 {
					return false
				}
				i := findInstr(p, func(in isa.Instruction) bool {
					return in.Op == isa.OpLoadD && in.Rows > 0 && int(in.Bat) < p.BatchN()-1
				})
				if i < 0 {
					return false
				}
				p.Instrs[i].Bat++
				return true
			},
		},
		{
			// One byte short of the worst live state at the park point.
			Name:   "shrink-virsave",
			Expect: []progcheck.Class{progcheck.ClassReservation, progcheck.ClassBound},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpVirSave && in.Len > 0 })
				if i < 0 {
					return false
				}
				p.Instrs[i].Len--
				return true
			},
		},
		{
			// The backup no longer covers the highest finished-but-unsaved
			// group, and no longer describes the CALC_F it follows.
			Name: "narrow-virsave",
			Expect: []progcheck.Class{
				progcheck.ClassGroup, progcheck.ClassPoints, progcheck.ClassReservation,
			},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpVirSave && in.OutG > 0 })
				if i < 0 {
					return false
				}
				p.Instrs[i].OutG--
				return true
			},
		},
		{
			// A forged bound is invisible to every structural pass; only the
			// independent re-derivation can refuse it.
			Name:   "inflate-bound",
			Expect: []progcheck.Class{progcheck.ClassBound},
			Exact:  true,
			Apply: func(p *isa.Program) bool {
				if p.ResponseBound == 0 {
					return false
				}
				p.ResponseBound += 1000
				return true
			},
		},
		{
			Name:   "deflate-bound",
			Expect: []progcheck.Class{progcheck.ClassBound},
			Exact:  true,
			Apply: func(p *isa.Program) bool {
				if p.ResponseBound < 2 {
					return false
				}
				p.ResponseBound--
				return true
			},
		},
		{
			// An incomplete restore sequence: resuming at the point replays
			// a CALC whose input window the group never rebuilt. Picks a
			// mid-tile park point (more output groups follow), so the
			// dropped element's rows are consulted again before any real
			// LOAD_D could mask the hole.
			Name:   "drop-restore",
			Expect: []progcheck.Class{progcheck.ClassResume, progcheck.ClassBound},
			Apply: func(p *isa.Program) bool {
				for _, s := range virSaveLeaders(p) {
					lead := p.Instrs[s]
					if int(lead.OutG) >= p.Layers[lead.Layer].NOut-1 {
						continue
					}
					for j := s + 1; j < len(p.Instrs) && p.Instrs[j].Op == isa.OpVirLoadD; j++ {
						if p.Instrs[j].Which <= 1 && p.Instrs[j].Rows > 0 {
							dropAt(p, j)
							return true
						}
					}
				}
				return false
			},
		},
		{
			// A mid-batch park point without its weight refetch: the replay
			// reaches the next element's CALC with no weights resident.
			Name:   "drop-refetch",
			Expect: []progcheck.Class{progcheck.ClassResume, progcheck.ClassBound},
			Apply: func(p *isa.Program) bool {
				i := findInstr(p, func(in isa.Instruction) bool { return in.Op == isa.OpVirLoadD && in.Which == 2 })
				if i < 0 {
					return false
				}
				dropAt(p, i)
				return true
			},
		},
		{
			// A Vir_SAVE hiding inside a restore group: parking there would
			// truncate the restore sequence. The converted instruction keeps
			// its Vir_LOAD_D operands, so isa validation or any state/layout
			// rule may also trip over it — but it must be refused.
			Name: "virsave-in-group",
			Expect: []progcheck.Class{
				progcheck.ClassPoints, progcheck.ClassGroup, progcheck.ClassStructure,
				progcheck.ClassState, progcheck.ClassLayout, progcheck.ClassReservation,
				progcheck.ClassBounds,
			},
			Apply: func(p *isa.Program) bool {
				for i := 1; i < len(p.Instrs); i++ {
					if p.Instrs[i].Op == isa.OpVirLoadD && p.Instrs[i-1].Op.Virtual() {
						p.Instrs[i].Op = isa.OpVirSave
						return true
					}
				}
				return false
			},
		},
		{
			// Beheading a backup group leaves a restore-only group behind a
			// CALC_F — a park point whose output window would be lost.
			Name: "drop-virsave",
			Expect: []progcheck.Class{
				progcheck.ClassGroup, progcheck.ClassPoints, progcheck.ClassBound,
			},
			Apply: func(p *isa.Program) bool {
				if ls := virSaveLeaders(p); len(ls) > 0 {
					dropAt(p, ls[0])
					return true
				}
				return false
			},
		},
	}
}
