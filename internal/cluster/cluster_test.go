package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/trace"
)

func testAccel() accel.Config {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 8, 8, 4
	return cfg
}

// resolved asserts the zero-tasks-lost property: every offered task ends
// completed or deliberately shed with a recorded reason.
func resolved(t *testing.T, res *Result) {
	t.Helper()
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if !o.Completed && o.Shed == "" {
			t.Errorf("task %d (%s) lost: neither completed nor shed", o.TaskID, o.Name)
		}
		if o.Completed && o.Shed != "" {
			t.Errorf("task %d both completed and shed(%s)", o.TaskID, o.Shed)
		}
	}
	if res.Stats.Completed+res.Stats.Shed != res.Stats.Offered {
		t.Errorf("ledger broken: %d completed + %d shed != %d offered",
			res.Stats.Completed, res.Stats.Shed, res.Stats.Offered)
	}
}

// bitExact asserts every completed task's arena equals its golden image.
func bitExact(t *testing.T, w *Workload, res *Result) int {
	t.Helper()
	checked := 0
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if !o.Completed {
			continue
		}
		if !bytes.Equal(w.Tasks[o.TaskID].Arena, w.Golden[o.TaskID]) {
			n, first := 0, -1
			for j := range w.Golden[o.TaskID] {
				if w.Tasks[o.TaskID].Arena[j] != w.Golden[o.TaskID][j] {
					n++
					if first < 0 {
						first = j
					}
				}
			}
			t.Errorf("task %d (%s, engine %d, %d migrations, %d salvages) differs from golden: %d bytes, first at %d",
				o.TaskID, o.Name, o.Engine, o.Migrations, o.Salvaged, n, first)
		}
		checked++
	}
	return checked
}

func TestClusterFaultFreeBitExact(t *testing.T) {
	cfg := testAccel()
	w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 24, Seed: 11, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Engines: 2, Accel: cfg, Policy: iau.PolicyVI}, w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	resolved(t, res)
	if res.Stats.Completed != len(w.Tasks) {
		t.Errorf("fault-free run completed %d of %d (shed %d)", res.Stats.Completed, len(w.Tasks), res.Stats.Shed)
	}
	if n := bitExact(t, w, res); n != len(w.Tasks) {
		t.Errorf("checked %d arenas, want %d", n, len(w.Tasks))
	}
	if res.Stats.WatchdogKills != 0 || res.Stats.Quarantines != 0 {
		t.Errorf("fault-free run reports %d kills, %d quarantines", res.Stats.WatchdogKills, res.Stats.Quarantines)
	}
}

// chaosConfig is the acceptance scenario: 4 engines, corruption and stalls
// at 5% per probe, hangs heavy enough (25% of attempts) that watchdog
// kills, migrations, and salvage resumes all occur, and quarantines forced
// by a kill threshold of 1.
func chaosConfig(cfg accel.Config, progs []*isa.Program, tr *trace.Tracer) Config {
	return Config{
		Engines: 4, Accel: cfg, Policy: iau.PolicyVI,
		Seed:            0xC1A05,
		HangRate:        HangRatePerAttempt(progs, 0.25),
		BackupRate:      0.05,
		StallRate:       0.05,
		QuarantineAfter: 1, MaxMigrations: 6,
		Tracer: tr,
	}
}

func TestClusterChaosBitExactAndDeterministic(t *testing.T) {
	cfg := testAccel()
	run := func() (*Workload, *Result, []byte, *trace.Metrics) {
		w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 40, Seed: 7, Functional: true, DeadlineFactor: 24})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(4096)
		res, err := Run(chaosConfig(cfg, w.Progs, tr), w.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Stats.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return w, res, buf.Bytes(), tr.Metrics()
	}

	w, res, report, tm := run()
	t.Logf("\n%s", res.Stats.String())
	resolved(t, res)
	bitExact(t, w, res)

	// The scenario must actually exercise the robustness machinery.
	st := &res.Stats
	if st.WatchdogKills == 0 {
		t.Error("chaos run injected no watchdog kills")
	}
	if st.Quarantines == 0 {
		t.Error("chaos run forced no quarantines")
	}
	if st.Migrations == 0 {
		t.Error("chaos run performed no migrations")
	}
	if st.SalvageResumes == 0 {
		t.Error("chaos run never resumed from a salvaged checkpoint")
	}
	if st.Readmits == 0 {
		t.Error("chaos run never readmitted a quarantined engine")
	}
	if st.Completed == 0 {
		t.Fatal("chaos run completed nothing")
	}

	// Cluster marks must land in the trace metrics under engine slots.
	var q, m uint64
	for i := range tm.Tasks {
		q += tm.Tasks[i].Quarantines
		m += tm.Tasks[i].Migrations
	}
	if q != uint64(st.Quarantines) || m != uint64(st.Migrations) {
		t.Errorf("trace metrics disagree with stats: quarantines %d vs %d, migrations %d vs %d",
			q, st.Quarantines, m, st.Migrations)
	}

	// Byte-identical reproduction with the same seed.
	_, res2, report2, _ := run()
	if !bytes.Equal(report, report2) {
		t.Errorf("stats reports differ across identical runs:\n%s\nvs\n%s", report, report2)
	}
	for i := range res.Outcomes {
		a, b := res.Outcomes[i], res2.Outcomes[i]
		if a != b {
			t.Errorf("outcome %d differs across identical runs: %+v vs %+v", i, a, b)
		}
	}
}

// TestClusterFunctionalMatchesTiming: cycles never depend on whether a task
// carries an arena, so the chaos stream run functionally and timing-only
// reports the same ledger byte for byte and the same outcome for every task —
// watchdog kills and salvage resumes included.
func TestClusterFunctionalMatchesTiming(t *testing.T) {
	cfg := testAccel()
	run := func(functional bool) (*Result, []byte) {
		w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 40, Seed: 7, Functional: functional, DeadlineFactor: 24})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(chaosConfig(cfg, w.Progs, nil), w.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Stats.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	fres, freport := run(true)
	tres, treport := run(false)
	if fres.Stats.WatchdogKills == 0 || fres.Stats.SalvageResumes == 0 {
		t.Fatalf("stream too tame: %d watchdog kills, %d salvage resumes", fres.Stats.WatchdogKills, fres.Stats.SalvageResumes)
	}
	if !bytes.Equal(freport, treport) {
		t.Errorf("stats differ between modes:\nfunctional:\n%s\ntiming-only:\n%s", freport, treport)
	}
	differ := 0
	for i := range fres.Outcomes {
		if a, b := fres.Outcomes[i], tres.Outcomes[i]; a != b {
			if differ++; differ == 1 {
				t.Errorf("outcome %d: functional %+v, timing-only %+v", i, a, b)
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d outcomes differ between modes", differ, len(fres.Outcomes))
	}
}

func TestClusterOverloadShedsLowestPriorityFirst(t *testing.T) {
	cfg := testAccel()
	w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Simultaneous burst: everything arrives at once on one engine with a
	// tiny backlog, so admission control must shed.
	for i := range w.Tasks {
		w.Tasks[i].Arrival = 0
	}
	res, err := Run(Config{Engines: 1, Accel: cfg, Policy: iau.PolicyVI, MaxQueue: 4}, w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	resolved(t, res)
	if res.Stats.ShedOverload == 0 {
		t.Fatal("burst on MaxQueue=4 shed nothing")
	}
	if res.Stats.AdmitRejects != res.Stats.ShedOverload {
		t.Errorf("admit rejects %d != overload sheds %d", res.Stats.AdmitRejects, res.Stats.ShedOverload)
	}
	// Graceful degradation: no shed task may outrank a completed one that
	// arrived with it — priority 0/1 work survives at the expense of
	// best-effort priorities.
	minShed := 99
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Shed == ShedOverload && w.Tasks[o.TaskID].Priority < minShed {
			minShed = w.Tasks[o.TaskID].Priority
		}
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Completed && w.Tasks[o.TaskID].Priority > minShed {
			// A lower-priority task completing while a higher-priority one
			// was overload-shed is only possible if it was already placed
			// when the queue filled — allowed; but nothing shed may be
			// priority 0.
			break
		}
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Shed == ShedOverload && w.Tasks[o.TaskID].Priority == 0 {
			t.Errorf("critical task %d overload-shed while lower priorities ran", o.TaskID)
		}
	}
}

func TestClusterDeadlineInfeasibleRejected(t *testing.T) {
	cfg := testAccel()
	w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w.Tasks[1].Deadline = 1 // cannot finish in one cycle even alone
	res, err := Run(Config{Engines: 1, Accel: cfg, Policy: iau.PolicyVI, DeadlineCheck: true}, w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	resolved(t, res)
	if got := res.Outcomes[1].Shed; got != ShedInfeasible {
		t.Errorf("infeasible task outcome %q, want %q", got, ShedInfeasible)
	}
	if res.Stats.ShedInfeasible != 1 {
		t.Errorf("ShedInfeasible = %d, want 1", res.Stats.ShedInfeasible)
	}
}

// TestClusterUnverifiableRejected: admission statically verifies every
// stream; a task whose program fails progcheck — here a forged
// ResponseBound and a truncated stream — is shed as unverifiable and its
// bound never enters the worst-yield admission arithmetic.
func TestClusterUnverifiableRejected(t *testing.T) {
	cfg := testAccel()
	w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	forged := *w.Tasks[1].Prog
	forged.ResponseBound += 1 << 40 // would dominate worstYield if believed
	w.Tasks[1].Prog = &forged
	truncated := *w.Tasks[2].Prog
	truncated.Instrs = truncated.Instrs[:len(truncated.Instrs)-1]
	w.Tasks[2].Prog = &truncated
	res, err := Run(Config{Engines: 2, Accel: cfg, Policy: iau.PolicyVI}, w.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	resolved(t, res)
	for _, id := range []int{1, 2} {
		if got := res.Outcomes[id].Shed; got != ShedUnverifiable {
			t.Errorf("task %d outcome %q, want %q", id, got, ShedUnverifiable)
		}
	}
	if res.Stats.ShedUnverifiable != 2 {
		t.Errorf("ShedUnverifiable = %d, want 2", res.Stats.ShedUnverifiable)
	}
	for _, id := range []int{0, 3} {
		if !res.Outcomes[id].Completed {
			t.Errorf("clean task %d not completed (shed=%q)", id, res.Outcomes[id].Shed)
		}
	}
}

func TestClusterScalesWithEngines(t *testing.T) {
	cfg := testAccel()
	mk := func() []Task {
		w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 30, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return w.Tasks
	}
	res1, err := Run(Config{Engines: 1, Accel: cfg, Policy: iau.PolicyVI}, mk())
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Run(Config{Engines: 4, Accel: cfg, Policy: iau.PolicyVI}, mk())
	if err != nil {
		t.Fatal(err)
	}
	resolved(t, res1)
	resolved(t, res4)
	if res4.Stats.Completed < res1.Stats.Completed {
		t.Errorf("4 engines completed %d < 1 engine's %d", res4.Stats.Completed, res1.Stats.Completed)
	}
	if res4.Stats.MakespanCycles >= res1.Stats.MakespanCycles {
		t.Errorf("4-engine makespan %d not better than 1-engine %d",
			res4.Stats.MakespanCycles, res1.Stats.MakespanCycles)
	}
	p99one, p99four := res1.Stats.Latency.Quantile(0.99), res4.Stats.Latency.Quantile(0.99)
	if p99four > p99one {
		t.Errorf("4-engine p99 %d worse than 1-engine %d", p99four, p99one)
	}
}

// TestClusterRunRejectsBadArgs: Run validates its inputs before any engine is
// built. Task ids index the outcome and deadline ledgers, so two tasks sharing
// one must be refused by name rather than silently merged.
func TestClusterRunRejectsBadArgs(t *testing.T) {
	cfg := testAccel()
	w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		engines int
		mutate  func(ts []Task)
		want    string
	}{
		{name: "no engines", engines: 0, want: "need at least one engine"},
		{name: "id out of range", engines: 1, mutate: func(ts []Task) { ts[2].ID = 3 }, want: `id 3 out of [0,3)`},
		{name: "duplicate id", engines: 1, mutate: func(ts []Task) { ts[2].ID = 0 },
			want: `tasks "` + w.Tasks[0].Name + `" and "` + w.Tasks[2].Name + `" share id 0`},
		{name: "no program", engines: 1, mutate: func(ts []Task) { ts[1].Prog = nil }, want: "has no program"},
		{name: "priority out of range", engines: 1, mutate: func(ts []Task) { ts[1].Priority = iau.NumSlots }, want: "priority 4 out of [0,4)"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tasks := append([]Task(nil), w.Tasks...)
			if tc.mutate != nil {
				tc.mutate(tasks)
			}
			res, err := Run(Config{Engines: tc.engines, Accel: cfg, Policy: iau.PolicyVI}, tasks)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if res != nil {
				t.Errorf("rejected run returned a result")
			}
		})
	}
}

// TestSoloCyclesIsTheIAUsSoloRun: the admission estimate is the one engine
// replay (accel.SoloReplay) — it ends on the cycle a lone IAU run of the
// stream ends on, and recording per-instruction starts does not move it. The
// first call lowers the program's plan; every later one reads it and
// allocates nothing, whatever the stream's length.
func TestSoloCyclesIsTheIAUsSoloRun(t *testing.T) {
	cfg := testAccel()
	w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lengths := map[int]bool{}
	for i, p := range w.Progs {
		got := SoloCycles(cfg, p)
		plan := p.Plan
		if plan == nil {
			t.Fatalf("prog %d: the first SoloCycles left no plan on the program", i)
		}
		u := iau.New(cfg, iau.PolicyVI)
		if err := u.Submit(1, &iau.Request{Label: "solo", Prog: p}); err != nil {
			t.Fatal(err)
		}
		if err := u.RunAll(); err != nil {
			t.Fatal(err)
		}
		u.Eng.Close()
		if got != u.Now {
			t.Errorf("prog %d: SoloCycles %d, a lone IAU run ends at %d", i, got, u.Now)
		}
		starts := make([]uint64, len(p.Instrs))
		if total := accel.SoloReplay(cfg, p, starts); total != got {
			t.Errorf("prog %d: recording starts moved the total: %d vs %d", i, total, got)
		}
		for j := 1; j < len(starts) && p.Instrs[j-1].Op != isa.OpEnd; j++ {
			if starts[j] < starts[j-1] {
				t.Fatalf("prog %d: start cycles go backwards at instruction %d", i, j)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		SoloCycles(cfg, p)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b != 0 || p.Plan != plan {
			t.Errorf("prog %d (%d instructions): a later SoloCycles allocated %d B and replaced the plan: %v", i, len(p.Instrs), b, p.Plan != plan)
		}
		lengths[len(p.Instrs)] = true
	}
	if len(lengths) < 2 {
		t.Fatalf("need programs of different lengths, got %v", lengths)
	}
}
