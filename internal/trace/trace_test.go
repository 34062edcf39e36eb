package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// A nil tracer must be a no-op on every path — that is the zero-overhead
// contract the hot paths rely on.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Span(KindCalc, 0, 10, 5, 0, "calc")
	tr.Mark(KindComplete, 0, 20, 7, "done")
	tr.SetTaskLabel(0, "FE")
	if got := tr.Events(); got != nil {
		t.Errorf("nil tracer returned events: %v", got)
	}
	if tr.Dropped() != 0 || tr.Total() != 0 {
		t.Error("nil tracer reports activity")
	}
	m := tr.Metrics()
	if m == nil || len(m.Tasks) != 0 {
		t.Errorf("nil tracer metrics: %+v", m)
	}
}

func TestRingWrapKeepsNewestAndCountsDrops(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Mark(KindSubmit, 0, uint64(i), 0, "")
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("event %d at cycle %d, want %d (newest window)", i, e.Cycle, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
	// Aggregates survive the wrap: all ten submits are counted.
	if got := tr.Metrics().Task(0).Submitted; got != 10 {
		t.Errorf("submitted = %d, want 10 despite wrap", got)
	}
}

// Marks keep their own ring: a flood of spans evicts older spans, never
// the scheduling marks between them, and Events still merges the survivors
// in emission order.
func TestMarksOutliveSpans(t *testing.T) {
	const capacity, spans = 8, 100
	markAfter := map[int]bool{10: true, 30: true, 50: true, 70: true, 95: true, 97: true}
	tr, under := New(capacity), New(0)
	var emitted, survivors []Event
	for i := 0; i < spans; i++ {
		s := Event{Cycle: uint64(i), Dur: 1, Kind: KindCalc, Slot: 1}
		for _, r := range []*Tracer{tr, under} {
			r.Span(s.Kind, int(s.Slot), s.Cycle, s.Dur, 0, "")
		}
		emitted = append(emitted, s)
		if i >= spans-capacity {
			survivors = append(survivors, s)
		}
		if markAfter[i] {
			m := Event{Cycle: uint64(i), Kind: KindPreempt, Slot: 1, Arg: uint64(i)}
			for _, r := range []*Tracer{tr, under} {
				r.Mark(m.Kind, int(m.Slot), m.Cycle, m.Arg, "")
			}
			emitted = append(emitted, m)
			survivors = append(survivors, m)
		}
	}
	if got := tr.Events(); !reflect.DeepEqual(got, survivors) {
		t.Errorf("wrapped ring: events\n%v\nwant all 6 marks among the last %d spans\n%v", got, capacity, survivors)
	}
	if tr.Dropped() != spans-capacity || tr.Total() != uint64(len(emitted)) {
		t.Errorf("dropped %d of %d, want %d of %d", tr.Dropped(), tr.Total(), spans-capacity, len(emitted))
	}
	if got := under.Events(); !reflect.DeepEqual(got, emitted) || under.Dropped() != 0 {
		t.Errorf("below capacity: %d events (%d dropped), want the %d-event emission sequence", len(got), under.Dropped(), len(emitted))
	}
}

func TestAggregation(t *testing.T) {
	tr := New(0)
	tr.SetTaskLabel(1, "PR")
	tr.Span(KindCalc, 1, 0, 100, 0, "")
	tr.Span(KindXfer, 1, 100, 40, 0, "")
	tr.Span(KindFetch, 1, 140, 2, 0, "")
	tr.Span(KindBackup, 1, 142, 30, 512, "")
	tr.Mark(KindPreempt, 1, 172, 0, "")
	tr.Mark(KindResume, 1, 272, 0, "")
	tr.Span(KindRestore, 1, 272, 20, 256, "")
	tr.Span(KindHidden, -1, 292, 9, 0, "")
	tr.Mark(KindComplete, 1, 300, 300, "")
	tr.Mark(KindDeadlineMiss, 1, 300, 0, "")

	m := tr.Metrics()
	tm := m.Task(1)
	if tm == nil {
		t.Fatal("no metrics for slot 1")
	}
	if tm.Label != "PR" {
		t.Errorf("label %q, want PR", tm.Label)
	}
	if tm.CalcCycles != 100 || tm.XferCycles != 40 || tm.FetchCycles != 2 ||
		tm.BackupCycles != 30 || tm.RestoreCycles != 20 {
		t.Errorf("cycle split wrong: %+v", tm)
	}
	if tm.BusyCycles() != 190 {
		t.Errorf("busy = %d, want 190", tm.BusyCycles())
	}
	if tm.WaitCycles != 100 {
		t.Errorf("wait = %d, want 100 (preempt@172 → resume@272)", tm.WaitCycles)
	}
	if tm.BackupBytes != 512 || tm.RestoreBytes != 256 {
		t.Errorf("bytes: backup %d restore %d", tm.BackupBytes, tm.RestoreBytes)
	}
	if tm.Completed != 1 || tm.Preemptions != 1 || tm.Resumes != 1 || tm.DeadlineMisses != 1 {
		t.Errorf("counters wrong: %+v", tm)
	}
	if m.HiddenCycles != 9 {
		t.Errorf("hidden = %d, want 9", m.HiddenCycles)
	}
	if tm.Latency.N != 1 || tm.Latency.Sum != 300 || tm.Latency.Max != 300 {
		t.Errorf("latency histogram: %+v", tm.Latency)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000, 1 << 40} {
		h.Observe(v)
	}
	if h.N != 7 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Max != 1<<40 {
		t.Errorf("max = %d", h.Max)
	}
	// 0 and 1 share bucket 0; 2,3 in bucket 1; 4 in bucket 2.
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[2] != 1 {
		t.Errorf("low buckets: %v", h.Counts[:4])
	}
	if q := h.Quantile(0.5); q != 1<<2 {
		t.Errorf("p50 = %d, want %d (upper edge of bucket holding the 4th obs)", q, 1<<2)
	}
	if q := h.Quantile(1.0); q != 1<<40 {
		t.Errorf("p100 = %d, want max", q)
	}
	if h.Mean() == 0 {
		t.Error("mean = 0")
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram not zero-valued")
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(0)
		tr.SetTaskLabel(0, "FE")
		tr.Span(KindCalc, 0, 0, 50, 0, "")
		tr.Mark(KindComplete, 0, 50, 50, "FE#0")
		return tr
	}
	var a, b bytes.Buffer
	if err := build().Metrics().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Metrics().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("metrics JSON not byte-identical across identical runs")
	}
	if !strings.Contains(a.String(), "\"calc_cycles\": 50") {
		t.Errorf("unexpected metrics JSON:\n%s", a.String())
	}
}

func TestPerfettoValidatesAndIsDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(0)
		tr.SetTaskLabel(0, "FE")
		tr.SetTaskLabel(1, "PR")
		// PR starts, is preempted by FE, resumes, completes.
		tr.Mark(KindStart, 1, 0, 0, "PR#0")
		tr.Span(KindCalc, 1, 0, 100, 0, "calc")
		tr.Span(KindBackup, 1, 100, 30, 512, "vir_save")
		tr.Mark(KindPreempt, 1, 130, 0, "PR#0")
		tr.Mark(KindStart, 0, 130, 0, "FE#0")
		tr.Span(KindCalc, 0, 130, 60, 0, "calc")
		tr.Mark(KindComplete, 0, 190, 60, "FE#0")
		tr.Mark(KindResume, 1, 190, 0, "PR#0")
		tr.Span(KindRestore, 1, 190, 20, 256, "vir_load_d")
		tr.Mark(KindComplete, 1, 260, 260, "PR#0")
		tr.Mark(KindDrop, 1, 300, 0, "PR#1")
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WritePerfettoNamed(&a, "inca accelerator"); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePerfettoNamed(&b, "inca accelerator"); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("perfetto JSON not byte-identical across identical runs")
	}
	if err := Validate(bytes.NewReader(a.Bytes())); err != nil {
		t.Errorf("emitted trace fails validation: %v\n%s", err, a.String())
	}
	for _, want := range []string{"slot0 FE", "slot1 PR", "preempted", "running", "vir_save"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// A truncated history (ring wrapped mid-request) must still serialise to
// valid JSON: stray E events are skipped and open spans closed at the end.
func TestPerfettoUnbalancedSpans(t *testing.T) {
	tr := New(0)
	// Resume/complete with no recorded start (history lost), then a start
	// whose request never completes (horizon truncation).
	tr.Mark(KindResume, 2, 50, 0, "PR#9")
	tr.Mark(KindComplete, 2, 80, 0, "PR#9")
	tr.Mark(KindStart, 0, 90, 0, "FE#1")
	tr.Span(KindCalc, 0, 90, 40, 0, "calc")
	var buf bytes.Buffer
	if err := tr.WritePerfettoNamed(&buf, "inca accelerator"); err != nil {
		t.Fatal(err)
	}
	if err := Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("unbalanced trace fails validation: %v\n%s", err, buf.String())
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"no traceEvents": `{"foo": []}`,
		"missing ph":     `{"traceEvents": [{"name":"x","ts":0,"pid":1,"tid":0}]}`,
		"unknown ph":     `{"traceEvents": [{"name":"x","ph":"Z","ts":0,"pid":1,"tid":0}]}`,
		"missing pid":    `{"traceEvents": [{"name":"x","ph":"i","ts":0}]}`,
		"X without dur":  `{"traceEvents": [{"name":"x","ph":"X","ts":0,"pid":1,"tid":0}]}`,
		"negative ts":    `{"traceEvents": [{"name":"x","ph":"i","ts":-4,"pid":1,"tid":0}]}`,
		"M without name": `{"traceEvents": [{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{}}]}`,
		"missing name":   `{"traceEvents": [{"ph":"i","ts":0,"pid":1,"tid":0}]}`,
	}
	for label, doc := range cases {
		if err := Validate(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	if err := Validate(strings.NewReader(`{"traceEvents": []}`)); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k == markStart {
			continue
		}
		if s := k.String(); s == "" || s == "Kind(?)" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(?)" {
		t.Error("out-of-range kind not handled")
	}
	if !KindCalc.IsSpan() || KindComplete.IsSpan() {
		t.Error("span/mark classification wrong")
	}
}
