package compiler

import (
	"fmt"

	"inca/internal/cost"
	"inca/internal/isa"
)

// CostModel prices instructions in accelerator cycles; accel.Config
// implements it (Options.Cost is populated by Config.CompilerOptions).
type CostModel = cost.Model

// VIPolicy selects how Compile makes a stream interruptible. The three
// implementations are VIEvery (the paper's fixed rule — a site after every
// CALC_F and SAVE), VIBudget (the minimal site set whose proven worst-case
// preemption response stays under a cycle budget), and VINone (an
// uninterruptible stream). A nil policy means VINone.
type VIPolicy interface {
	viPolicy()
	String() string
}

// VIEvery inserts a virtual-instruction group after every CALC_F (not
// followed by its SAVE) and after every SAVE — the paper's §4.3 rule and the
// densest legal placement. Byte-identical to the pre-VIPolicy compiler's
// InsertVirtual=true output.
type VIEvery struct{}

func (VIEvery) viPolicy()      {}
func (VIEvery) String() string { return "every" }

// VINone compiles an uninterruptible stream (no virtual instructions).
type VINone struct{}

func (VINone) viPolicy()      {}
func (VINone) String() string { return "none" }

// VIBudget keeps the minimal subset of VIEvery's insertion sites such that
// the modeled worst-case preemption-response latency — from any stream
// position, the cycles until the next kept interrupt point's backup completes
// (or the stream runs to END and yields) — does not exceed
// MaxResponseCycles. Requires Options.Cost; Compile fails with an error
// naming the minimal achievable bound when the budget is infeasible.
type VIBudget struct {
	// MaxResponseCycles is the per-task response budget in accelerator
	// cycles.
	MaxResponseCycles uint64
}

func (VIBudget) viPolicy()        {}
func (b VIBudget) String() string { return fmt.Sprintf("budget=%d", b.MaxResponseCycles) }

// VIIf returns VIEvery when on is true and VINone otherwise — a convenience
// for callers toggling interruptibility along a boolean axis.
func VIIf(on bool) VIPolicy {
	if on {
		return VIEvery{}
	}
	return VINone{}
}

// placeVI selects the minimal subset of the dense stream's sites whose
// response bound stays within budget, by dynamic programming over sites
// (f(j) = fewest kept sites covering the prefix when j is the last kept
// one). Greedy furthest-reachable is not sufficient here because a site's
// member-replay tail (charged to the segment it opens) varies between sites.
// Returns the kept site indices; ok=false when even keeping every site
// (minimal achievable bound = dense.ResponseBound) exceeds budget.
func placeVI(dense cost.Summary, budget uint64) (keep []int, ok bool) {
	sites, total := dense.Sites, dense.Total
	if total <= budget {
		return nil, true // the whole stream fits: no interrupt points needed
	}
	n := len(sites)
	const inf = int(^uint(0) >> 1)
	count := make([]int, n)  // fewest sites with site i kept last, inf if unreachable
	parent := make([]int, n) // previous kept site (-1 = none)
	best, bestCount := -1, inf
	for j := 0; j < n; j++ {
		count[j], parent[j] = inf, -1
		sj := sites[j]
		// Segment from program start.
		if sj.Real+sj.Backup <= budget {
			count[j] = 1
		}
		for i := 0; i < j; i++ {
			if count[i] == inf {
				continue
			}
			si := sites[i]
			if si.Tail+sj.Real-si.Real+sj.Backup <= budget && count[i]+1 < count[j] {
				count[j], parent[j] = count[i]+1, i
			}
		}
		// Can the stream finish within budget after site j?
		if count[j] < bestCount && sj.Tail+total-sj.Real <= budget {
			best, bestCount = j, count[j]
		}
	}
	if best < 0 {
		return nil, false
	}
	keep = make([]int, 0, bestCount)
	for j := best; j >= 0; j = parent[j] {
		keep = append(keep, j)
	}
	for l, r := 0, len(keep)-1; l < r; l, r = l+1, r-1 {
		keep[l], keep[r] = keep[r], keep[l]
	}
	return keep, true
}

// applyVI runs the selected VI policy on the freshly emitted program:
// inserts the virtual instructions, prunes sites under VIBudget, and stamps
// Program.ResponseBound from the cost model when one is available.
func applyVI(p *isa.Program, opt Options) error {
	pol := opt.VI
	if pol == nil {
		pol = VINone{}
	}
	switch pol := pol.(type) {
	case VINone:
	case VIEvery:
		p.Instrs = insertVirtual(p)
	case VIBudget:
		if opt.Cost == nil {
			return fmt.Errorf("compiler: VIBudget requires Options.Cost (use accel.Config.CompilerOptions)")
		}
		p.Instrs = insertVirtual(p)
		dense := cost.Summarize(p, opt.Cost)
		keep, ok := placeVI(dense, pol.MaxResponseCycles)
		if !ok {
			return fmt.Errorf("compiler: program %q cannot meet response budget %d cycles; minimal achievable bound (VIEvery) is %d cycles",
				p.Name, pol.MaxResponseCycles, dense.ResponseBound())
		}
		kept := make([]cost.Site, 0, len(keep))
		out := make([]isa.Instruction, 0, len(p.Instrs))
		last := 0
		for j, s := range dense.Sites {
			out = append(out, p.Instrs[last:s.Leader]...)
			if len(kept) < len(keep) && keep[len(kept)] == j {
				out = append(out, p.Instrs[s.Leader:s.End]...)
				kept = append(kept, s)
			}
			last = s.End
		}
		out = append(out, p.Instrs[last:]...)
		// Dropped sites' instructions vanish from the stream, so pruning
		// never raises a kept segment's cost: the bound of the kept sites is
		// the bound of the assembled stream and satisfies the same
		// per-segment constraints the selection enforced.
		p.Instrs = out
		p.ResponseBound = cost.ResponseBound(kept, dense.Total)
		return nil
	default:
		return fmt.Errorf("compiler: unknown VIPolicy %T", pol)
	}
	if opt.Cost != nil {
		p.ResponseBound = cost.Summarize(p, opt.Cost).ResponseBound()
	}
	return nil
}
