package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"inca/internal/accel"
	"inca/internal/cluster"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// env is what one run of one workload is given: the seed every generated
// input derives from, the time budget, the sizes, and the span recorder
// (nil unless the run is traced).
type env struct {
	name    string // the workload's name
	seed    uint64
	seconds float64
	sz      sizes
	rec     *recorder
	outDir  string
}

// result is what a workload hands back: host timings, the exact simulated
// observations the end-to-end metrics are computed from, the failure ledger
// and, in a traced run, the per-layer metrics it measured.
type result struct {
	setupS []float64 // one entry per set-up repetition
	timing timing
	sim    simObs

	attempted, failed int
	failMsgs          []string

	layer map[string]float64 // per-layer metrics (traced runs)
	split map[string]float64 // ladder attribution of the pass's host time, ns by layer (traced runs)
	notes []string
}

// simObs holds the simulated (cycle-model) observations of a workload's first
// pass. They depend on the seed and on nothing else, so they repeat exactly.
type simObs struct {
	freqMHz int
	cycles  []uint64 // accelerator cycles per op
	latency []uint64 // arrival -> done per op, cycles
	offered int      // ops offered (deadline-bearing ones where deadlines exist)
	met     int      // of those, completed (within the deadline)
	done    int      // completions counted for goodput
	span    uint64   // simulated cycles those completions took
	resp    []uint64 // preemption response per preemption, cycles
	cost    []uint64 // backup+restore+refetch per preemption, cycles
	progs   []*isa.Program
}

// fail counts n failed ops and keeps the first few reasons for the log.
func (r *result) fail(n int, format string, a ...interface{}) {
	r.failed += n
	if len(r.failMsgs) < 8 {
		r.failMsgs = append(r.failMsgs, fmt.Sprintf(format, a...))
	}
}

func (r *result) setLayer(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

// call runs f, records it as one span of the layer in a traced run, and
// returns its wall time. Every host time in the harness is taken here.
func (e *env) call(layer, name string, op int, f func() error) (time.Duration, error) {
	e.rec.begin(layer, name, op)
	t := time.Now()
	err := f()
	d := time.Since(t)
	e.rec.end()
	return d, err
}

// setupBudget caps the time spent repeating set-up, in seconds.
const setupBudget = 3.0

// setup runs f the configured number of times (fewer once the repetitions
// have used setupBudget), recording each duration as a setup_s sample, and
// returns the state the last repetition built. Repeating it is what lets
// setup_s be a median.
func setup[T any](e *env, res *result, f func() (T, error)) (T, error) {
	var st T
	var total float64
	for i := 0; i < e.sz.setups && (i == 0 || total+total/float64(i) < setupBudget); i++ {
		runtime.GC()
		d, err := e.call("harness", "setup", i, func() (err error) {
			st, err = f()
			return err
		})
		if err != nil {
			return st, err
		}
		res.setupS = append(res.setupS, d.Seconds())
		total += d.Seconds()
	}
	return st, nil
}

// unrecorded runs f with the recorder paused: a warm-up is not a sample.
func (e *env) unrecorded(f func() error) error {
	if e.rec == nil || e.rec.paused {
		return f()
	}
	e.rec.paused = true
	defer func() { e.rec.paused = false }()
	return f()
}

// timing is the host side of the timed section: one wall time and op count
// per repetition, and the bytes allocated over the whole section.
type timing struct {
	walls      []float64 // seconds of calls into the repo per repetition
	ops        []int
	allocBytes uint64
}

func (t *timing) totalOps() (n int) {
	for _, o := range t.ops {
		n += o
	}
	return n
}

func (t *timing) totalWall() (s float64) {
	for _, w := range t.walls {
		s += w
	}
	return s
}

// perOpMs returns the per-repetition (wall / ops) samples in milliseconds.
func (t *timing) perOpMs() []float64 {
	out := make([]float64, len(t.walls))
	for i, w := range t.walls {
		out[i] = 1e3 * w / float64(t.ops[i])
	}
	return out
}

// loop is the timed section. rep(i, first) runs repetition i and returns the
// ops it completed and the wall time of its calls into the repo; first is true
// for the first pass over the workload's units, whose simulated results are
// the ones recorded. The first pass always completes; after it, repetitions
// continue while another one is expected to fit in the budget.
func (e *env) loop(units int, budget float64, rep func(i int, first bool) (int, time.Duration, error)) (timing, error) {
	var tm timing
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; ; i++ {
		if i >= units {
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(i) > budget {
				break
			}
		}
		runtime.GC()
		ops, wall, err := rep(i, i < units)
		if err != nil {
			return tm, err
		}
		tm.walls = append(tm.walls, wall.Seconds())
		tm.ops = append(tm.ops, ops)
	}
	runtime.ReadMemStats(&m1)
	tm.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return tm, nil
}

// timed runs the workload's timed section. Untraced, that is loop over the
// whole budget. Traced, it is a shorter untraced loop (which still records the
// simulated results) and then up to three more units with spans on; the
// difference in per-op time between the two is the tracing overhead.
func (e *env) timed(res *result, units int, rep func(i int, first bool) (int, time.Duration, error)) error {
	if e.rec == nil {
		tm, err := e.loop(units, e.seconds, rep)
		res.timing = tm
		return err
	}
	err := e.unrecorded(func() (err error) {
		res.timing, err = e.loop(units, e.seconds/3, rep)
		return err
	})
	if err != nil {
		return err
	}
	var traced timing
	for i := 0; i < units && i < 3; i++ {
		runtime.GC()
		e.rec.begin("harness", "pass", i)
		ops, wall, err := rep(i, false)
		e.rec.end()
		if err != nil {
			return err
		}
		traced.walls = append(traced.walls, wall.Seconds())
		traced.ops = append(traced.ops, ops)
	}
	plain := median(res.timing.perOpMs())
	res.setLayer("harness.span_overhead_pct", pct(median(traced.perOpMs())-plain, plain))
	return nil
}

// ---- spans ----

// span is one timed call into a layer. Parent is the index of the enclosing
// span (-1 at the top); spans of one op share OpID.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

// recorder keeps spans in a preallocated slice; nothing is written until the
// run ends. A nil recorder records nothing, which is the untraced run.
type recorder struct {
	t0      time.Time
	spans   []span
	open    []int
	paused  bool
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity), open: make([]int, 0, 16)}
}

func (r *recorder) begin(layer, name string, op int) {
	if r == nil || r.paused {
		return
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		r.open = append(r.open, -1)
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, OpID: op, StartNs: int64(time.Since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
}

func (r *recorder) end() {
	if r == nil || r.paused {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	if i >= 0 {
		r.spans[i].EndNs = int64(time.Since(r.t0))
	}
}

// sum returns the total duration and count of the spans with the given layer
// and name.
func (r *recorder) sum(layer, name string) (ns float64, n int) {
	if r == nil {
		return 0, 0
	}
	for i := range r.spans {
		if s := &r.spans[i]; s.Layer == layer && s.Name == name {
			ns += float64(s.EndNs - s.StartNs)
			n++
		}
	}
	return ns, n
}

// meanMs is the mean duration in milliseconds of the named spans (0 if none).
func (r *recorder) meanMs(layer, name string) float64 {
	ns, n := r.sum(layer, name)
	if n == 0 {
		return 0
	}
	return ns / float64(n) / 1e6
}

// layerShare is one row of a host-time table.
type layerShare struct {
	Layer    string  `json:"layer"`
	Ms       float64 `json:"ms"`
	SharePct float64 `json:"share_pct"`
}

// shares returns the self time of each layer inside the traced pass (span
// duration minus the part its child spans cover), sorted by share. Seen from
// outside, a call's time belongs to the module that was called; the ladders
// are what split it further.
func (r *recorder) shares() []layerShare {
	self := make([]float64, len(r.spans))
	inPass := make([]bool, len(r.spans))
	byLayer := map[string]float64{}
	for i := range r.spans {
		s := &r.spans[i]
		d := float64(s.EndNs - s.StartNs)
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
			inPass[i] = inPass[s.Parent] || (r.spans[s.Parent].Layer == "harness" && r.spans[s.Parent].Name == "pass")
		}
	}
	for i := range r.spans {
		if inPass[i] {
			byLayer[r.spans[i].Layer] += self[i]
		}
	}
	return sortedShares(byLayer)
}

func sortedShares(ms map[string]float64) []layerShare {
	var total float64
	for _, v := range ms {
		total += v
	}
	var out []layerShare
	for l, v := range ms {
		out = append(out, layerShare{Layer: l, Ms: v / 1e6, SharePct: pct(v, total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ms != out[j].Ms {
			return out[i].Ms > out[j].Ms
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// writeJSON writes v to <outDir>/<name>.
func (e *env) writeJSON(name string, v interface{}) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, name), data, 0o644)
}

// ---- statistics ----

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the exact order statistic: the smallest sample with at least a
// share q of the samples at or below it. v is sorted in place.
func quantile(v []uint64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i])
}

func mean(v []uint64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// rng is a splitmix64 stream; every generated input comes from one seeded
// with the run's -seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sub derives an independent seed for stream i of the run.
func (e *env) sub(i uint64) uint64 {
	r := rng{s: e.seed ^ i*0xd1342543de82ef95}
	return r.next()
}

// ---- shared building blocks ----

// compile synthesizes weights for g and lowers it for cfg under the given
// interrupt-point policy, with the weight image embedded and the compiler's
// own self-check off (progcheck is a separate, timed phase where it matters).
func compile(cfg accel.Config, g *model.Network, seed uint64, vi compiler.VIPolicy, batch int) (*isa.Program, error) {
	q, err := quant.Synthesize(g, seed)
	if err != nil {
		return nil, err
	}
	opt := cfg.CompilerOptions()
	opt.VI = vi
	opt.Batch = batch
	opt.EmitWeights = true
	opt.Check = false
	return compiler.Compile(q, opt)
}

// probe answers the paper's question for a workload's deploy set: if an
// urgent request arrived while one of these programs held the accelerator,
// how long until it got it, and what would that cost the victim? For each
// interruptible program it makes timing-only passes: the victim starts alone
// in the lowest slot of a fresh IAU, and a small top-priority network arrives
// at seeded instants, one in each of k equal stretches of the victim's solo
// runtime (k keeps arrivals at least eight response bounds apart, so each
// finds the victim running undisturbed). Arrivals on a fixed period inside
// one long run would lock onto a few points of the victim's stream and
// measure those instead. Every response is checked against the victim's
// proven bound. The observations land in res.sim.resp/cost.
func (e *env) probe(res *result, cfg accel.Config, victims []*isa.Program) error {
	var vi []*isa.Program
	for _, p := range victims {
		if compiler.Analyze(p).InterruptPoints > 0 {
			vi = append(vi, p)
		}
	}
	if len(vi) == 0 {
		return fmt.Errorf("probe: no interruptible program in the deploy set")
	}
	urgent, err := compile(cfg, model.NewTinyCNN(1, 8, 8), e.sub(900), compiler.VINone{}, 1)
	if err != nil {
		return err
	}
	q := cluster.SoloCycles(cfg, urgent)
	atLeast := uint64(e.sz.probes+len(vi)-1) / uint64(len(vi))
	r := rng{s: e.sub(901)}
	victim := iau.NumSlots - 1
	var worst float64
	for n, v := range vi {
		bound := compiler.Analyze(v).ResponseBound
		solo := cluster.SoloCycles(cfg, v)
		k := solo / (8 * (bound + q))
		if k < 1 {
			k = 1
		}
		if k > 32 {
			k = 32
		}
		// Short victims get more arrivals than long ones, up to a cap: a pass
		// costs little simulated time, and their few distinct responses need
		// many samples before a quantile holds still.
		arrivals := e.sz.probeCycles / solo * k
		if arrivals < atLeast {
			arrivals = atLeast
		}
		if arrivals > 5000 {
			arrivals = 5000
		}
		_, err := e.call("probe", "probe.passes", n, func() error {
			for pass := uint64(0); pass*k < arrivals; pass++ {
				u := iau.New(cfg, iau.PolicyVI)
				if err := u.Submit(victim, &iau.Request{Label: "victim", Prog: v}); err != nil {
					return err
				}
				for i := uint64(0); i < k; i++ {
					at := 1 + (i*solo+r.next()%solo)/k
					if err := u.SubmitAt(0, &iau.Request{Label: "urgent", Prog: urgent}, at); err != nil {
						return err
					}
				}
				err := u.RunAll()
				u.Eng.Close()
				if err != nil {
					return err
				}
				for _, p := range u.Preemptions {
					if p.Victim != victim {
						continue
					}
					res.attempted++
					if p.Latency() > bound {
						res.fail(1, "probe %s: response %d cycles to the arrival at cycle %d exceeds the proven bound %d", v.Name, p.Latency(), p.RequestCycle, bound)
					}
					res.sim.resp = append(res.sim.resp, p.Latency())
					res.sim.cost = append(res.sim.cost, p.Cost())
					worst = math.Max(worst, pct(float64(p.Latency()), float64(bound)))
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", v.Name, err)
		}
	}
	res.setLayer("iau.resp_over_bound_max_pct", worst)
	return nil
}

// execStream runs a program's real instructions straight through an engine,
// as the IAU does when nothing interrupts: functionally on arena, timing-only
// when arena is nil. It returns how many instructions it executed.
func execStream(eng *accel.Engine, arena []byte, p *isa.Program) (int, error) {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == isa.OpEnd {
			break
		}
		if in.Op.Virtual() {
			continue
		}
		if _, err := eng.Exec(arena, p, in, 0); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// timingRungs times a program timing-only (nil arena) on the engine alone and
// under the IAU, best of a few, each as one span over the whole stream: a
// single timing-path call is shorter than the timer is precise. It returns
// the two wall times and the number of instructions the engine executed.
func (e *env) timingRungs(cfg accel.Config, p *isa.Program, slot, op int) (engine, underIAU time.Duration, instrs int, err error) {
	engine, err = bestOf(5, func() (time.Duration, error) {
		eng := accel.NewEngine(cfg)
		defer eng.Close()
		return e.call("accel", "accel.timing_stream", op, func() (err error) {
			instrs, err = execStream(eng, nil, p)
			return err
		})
	})
	if err != nil {
		return 0, 0, 0, err
	}
	underIAU, err = bestOf(5, func() (time.Duration, error) {
		u := iau.New(cfg, iau.PolicyVI)
		defer u.Eng.Close()
		return e.call("iau", "iau.timing_run_all", op, func() error {
			if err := u.Submit(slot, &iau.Request{Label: p.Name, Prog: p}); err != nil {
				return err
			}
			return u.RunAll()
		})
	})
	return engine, underIAU, instrs, err
}

// bestOf runs f n times and returns the shortest wall time: the rungs of a
// ladder are compared with each other, so each is taken at its least
// disturbed.
func bestOf(n int, f func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// layerMACs counts the multiply-accumulates of one batch element of a
// compiled layer.
func layerMACs(l *isa.LayerInfo) float64 {
	if l.Op != isa.LayerConv {
		return 0
	}
	ch, cw := l.OutH, l.OutW
	if l.FusedPool > 1 {
		ch, cw = l.OutH*l.FusedPool, l.OutW*l.FusedPool
	}
	return float64(l.OutC) * float64(ch) * float64(cw) * float64(l.InC/l.Groups) * float64(l.KH) * float64(l.KW)
}
