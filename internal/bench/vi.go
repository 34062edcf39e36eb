package bench

// The interrupt-point-placement benchmark behind `inca-bench -suite=vi` and
// the vi quarter of `make bench-gate`: it compiles the DSLAM model set under
// both placement policies — VIEvery (a backup group at every legal site, the
// paper's rule) and VIBudget (the cost-model optimizer keeping the minimal
// site set that still proves a response bound) — and snapshots interrupt-point
// counts, stream and Vir_SAVE bytes, the modeled worst-case response, and the
// worst response actually measured under an adversarial preemption sweep.
// Everything comes from the deterministic cycle model, so Gate compares the
// file byte for byte; independent of any baseline, checkVI enforces the
// optimizer's contract on every measurement: the budget stream carries fewer
// sites and fewer bytes than the every-site stream, and no measured response
// ever exceeds the proven bound.

import (
	"bytes"
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
)

// viBudgetScale is the VIBudget given to the optimizer, as a multiple of the
// stream's minimal achievable (VIEvery) bound: loose enough that every DSLAM
// model is feasible, tight enough that the optimizer genuinely prunes.
const viBudgetScale = 4

// VIPlacement is one placement policy's footprint and response behaviour on
// one model.
type VIPlacement struct {
	Policy string `json:"policy"` // "every" or "budget"

	// Stream footprint.
	Points       int    `json:"interrupt_points"`
	StreamBytes  uint64 `json:"stream_bytes"`  // encoded .icb size
	VirSaveBytes uint64 `json:"virsave_bytes"` // worst-case backup traffic
	Instrs       int    `json:"instrs"`

	// Bound is the compiler-proven worst-case preemption response;
	// MeasuredWorst is the worst response the adversarial sweep actually
	// observed. checkVI enforces MeasuredWorst <= Bound.
	Bound         uint64 `json:"bound_cycles"`
	MeasuredWorst uint64 `json:"measured_worst_cycles"`
	Preemptions   int    `json:"preemptions"` // sweep preemptions measured
}

// VIModel is one DSLAM model's before/after pair.
type VIModel struct {
	Name     string      `json:"name"`
	Budget   uint64      `json:"budget_cycles"` // VIBudget handed to the optimizer
	Every    VIPlacement `json:"every"`
	Budgeted VIPlacement `json:"budgeted"`
}

// VISnapshot is the checked-in placement baseline.
type VISnapshot struct {
	Config      string    `json:"config"`
	BudgetScale float64   `json:"budget_scale"`
	Models      []VIModel `json:"models"`
}

// VIBench compiles the DSLAM set under both placement policies, measures the
// adversarial worst response of each stream, and returns the snapshot plus a
// rendered table.
func VIBench() (*VISnapshot, *Table, error) {
	cfg := accel.Small()
	tasks := schedBenchTasks()

	// The interferer: a stream just long enough to force a park-and-resume.
	probe, err := viCompile(cfg, "probe", tasks[0].net, compiler.VIEvery{})
	if err != nil {
		return nil, nil, err
	}

	snap := &VISnapshot{Config: cfg.Name, BudgetScale: viBudgetScale}
	t := &Table{
		ID: "VI",
		Title: fmt.Sprintf("interrupt-point placement on the DSLAM model set (%s, budget %dx the minimal bound)",
			cfg.Name, viBudgetScale),
		Columns: []string{"model", "policy", "points", "stream B", "Vir_SAVE B",
			"bound cyc", "measured cyc"},
	}

	for _, tk := range tasks {
		every, err := viCompile(cfg, tk.name, tk.net, compiler.VIEvery{})
		if err != nil {
			return nil, nil, err
		}
		budget := viBudgetScale * every.ResponseBound
		budgeted, err := viCompile(cfg, tk.name, tk.net, compiler.VIBudget{MaxResponseCycles: budget})
		if err != nil {
			return nil, nil, err
		}

		row := VIModel{Name: tk.name, Budget: budget}
		if row.Every, err = viMeasure(cfg, every, probe, "every"); err != nil {
			return nil, nil, fmt.Errorf("vi bench %s/every: %v", tk.name, err)
		}
		if row.Budgeted, err = viMeasure(cfg, budgeted, probe, "budget"); err != nil {
			return nil, nil, fmt.Errorf("vi bench %s/budget: %v", tk.name, err)
		}
		snap.Models = append(snap.Models, row)
		for _, pl := range []VIPlacement{row.Every, row.Budgeted} {
			t.AddRow(tk.name, pl.Policy,
				fmt.Sprintf("%d", pl.Points),
				fmt.Sprintf("%d", pl.StreamBytes),
				fmt.Sprintf("%d", pl.VirSaveBytes),
				fmt.Sprintf("%d", pl.Bound),
				fmt.Sprintf("%d", pl.MeasuredWorst))
		}
	}

	t.AddNote("measured = worst preemption response over a sweep probing just past every (strided) interrupt point")
	t.AddNote("every measurement is checked for measured <= bound and budget points/bytes < every points/bytes, independent of the baseline")
	return snap, t, nil
}

// viCompile lowers one DSLAM net under the given placement policy.
func viCompile(cfg accel.Config, name string, net *model.Network, vi compiler.VIPolicy) (*isa.Program, error) {
	p, err := compileNet(cfg, net, vi, 21)
	if err != nil {
		return nil, fmt.Errorf("vi bench %s (%s): %v", name, vi, err)
	}
	return p, nil
}

// viMeasure fills one placement row: static stream metrics plus the measured
// adversarial worst response.
func viMeasure(cfg accel.Config, p, probe *isa.Program, policy string) (VIPlacement, error) {
	pl := VIPlacement{
		Policy:       policy,
		Points:       len(p.InterruptPoints()),
		VirSaveBytes: compiler.Analyze(p).VirSaveBytes,
		Bound:        p.ResponseBound,
		Instrs:       len(p.Instrs),
	}
	var buf bytes.Buffer
	if err := isa.Encode(&buf, p); err != nil {
		return pl, err
	}
	pl.StreamBytes = uint64(buf.Len())
	worst, n, err := viWorstResponse(cfg, p, probe)
	if err != nil {
		return pl, err
	}
	pl.MeasuredWorst, pl.Preemptions = worst, n
	return pl, nil
}

// viWorstResponse sweeps adversarial probe submissions over the victim
// stream — one just past every (strided) interrupt point, the worst moment
// for that segment, plus evenly spaced fill-ins — and returns the worst
// preemption response observed and the number of preemptions measured.
func viWorstResponse(cfg accel.Config, victim, probe *isa.Program) (uint64, int, error) {
	starts := make([]uint64, len(victim.Instrs))
	soloTotal := accel.SoloReplay(cfg, victim, starts)
	pts := victim.InterruptPoints()
	var submits []uint64
	if len(pts) > 0 {
		stride := (len(pts) + 23) / 24
		for i := 0; i < len(pts); i += stride {
			submits = append(submits, starts[pts[i]]+1)
		}
	}
	for i := uint64(1); i <= 8; i++ {
		submits = append(submits, soloTotal*i/9)
	}

	var worst uint64
	preempts := 0
	for _, at := range submits {
		if at == 0 || at >= soloTotal {
			continue
		}
		u := iau.New(cfg, iau.PolicyVI)
		if err := u.Submit(3, &iau.Request{Label: "victim", Prog: victim}); err != nil {
			u.Eng.Close()
			return 0, 0, err
		}
		if err := u.SubmitAt(0, &iau.Request{Label: "probe", Prog: probe}, at); err != nil {
			u.Eng.Close()
			return 0, 0, err
		}
		err := u.RunAll()
		if err != nil {
			u.Eng.Close()
			return 0, 0, err
		}
		for _, rec := range u.Preemptions {
			if rec.Victim != 3 {
				continue
			}
			preempts++
			if d := rec.BackupDoneCycle - rec.RequestCycle; d > worst {
				worst = d
			}
		}
		u.Eng.Close()
	}
	return worst, preempts, nil
}

// checkVI is the vi suite's baseline-free contract, the placement optimizer's
// promise: every measured response within its proven bound (over a
// non-vacuous sweep), the proven budget bound within the budget it was given,
// and the budget stream strictly smaller — fewer interrupt points, fewer
// stream bytes, fewer Vir_SAVE bytes — than the every-site stream.
func checkVI(s *VISnapshot) (fails []string) {
	for _, m := range s.Models {
		for _, pl := range []VIPlacement{m.Every, m.Budgeted} {
			if pl.MeasuredWorst > pl.Bound {
				fails = append(fails, fmt.Sprintf("%s/%s: measured worst response %d cycles exceeds the proven bound %d",
					m.Name, pl.Policy, pl.MeasuredWorst, pl.Bound))
			}
			if pl.Preemptions == 0 {
				fails = append(fails, fmt.Sprintf("%s/%s: adversarial sweep produced no preemptions — the measurement is vacuous",
					m.Name, pl.Policy))
			}
		}
		if m.Budgeted.Bound > m.Budget {
			fails = append(fails, fmt.Sprintf("%s: emitted bound %d exceeds the optimizer's budget %d",
				m.Name, m.Budgeted.Bound, m.Budget))
		}
		if m.Budgeted.Points >= m.Every.Points {
			fails = append(fails, fmt.Sprintf("%s: budget placement kept %d interrupt points, every-site has %d — the optimizer pruned nothing",
				m.Name, m.Budgeted.Points, m.Every.Points))
		}
		if m.Budgeted.StreamBytes >= m.Every.StreamBytes {
			fails = append(fails, fmt.Sprintf("%s: budget stream %d B not smaller than every-site %d B",
				m.Name, m.Budgeted.StreamBytes, m.Every.StreamBytes))
		}
		if m.Budgeted.VirSaveBytes >= m.Every.VirSaveBytes {
			fails = append(fails, fmt.Sprintf("%s: budget Vir_SAVE traffic %d B not smaller than every-site %d B",
				m.Name, m.Budgeted.VirSaveBytes, m.Every.VirSaveBytes))
		}
	}
	return fails
}
