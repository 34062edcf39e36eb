package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"inca/internal/accel"
	"inca/internal/iau"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID: "T", Title: "demo",
		Columns: []string{"a", "long-column", "c"},
	}
	tb.AddRow("1", "2", "3")
	tb.AddRow("wide-cell", "x", "y")
	tb.AddNote("note %d", 7)
	s := tb.String()
	for _, want := range []string{"== T: demo ==", "long-column", "wide-cell", "note: note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Header + separator + 2 rows + note + title.
	if len(lines) != 6 {
		t.Errorf("rendered %d lines, want 6:\n%s", len(lines), s)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	tb := &Table{ID: "T9", Title: "json", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddNote("n%d", 1)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Table{tb, {ID: "T10", Title: "empty"}}); err != nil {
		t.Fatal(err)
	}
	var got []Table
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 || got[0].ID != "T9" || got[1].Title != "empty" {
		t.Fatalf("round trip mangled tables: %+v", got)
	}
	if len(got[0].Rows) != 1 || got[0].Rows[0][1] != "2" || got[0].Notes[0] != "n1" {
		t.Fatalf("round trip mangled cells: %+v", got[0])
	}
	if !strings.Contains(buf.String(), "\"columns\"") {
		t.Errorf("expected lower-case json keys:\n%s", buf.String())
	}
}

func TestSamplePositionsDeterministicAndInRange(t *testing.T) {
	a := samplePositions(1_000_000, 12, 2020)
	b := samplePositions(1_000_000, 12, 2020)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("samplePositions not deterministic")
		}
		if a[i] < 10_000 || a[i] > 990_000 {
			t.Fatalf("position %d = %d outside the sane band", i, a[i])
		}
	}
	c := samplePositions(1_000_000, 12, 2021)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds give identical positions")
	}
}

// parsePercent extracts a "12.3%"-style cell.
func parsePercent(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestE3MatchesPaperShape(t *testing.T) {
	tb, err := E3BackupVsConv(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(tb.Rows))
	}
	// Column 6 is measured t1; column 9 is the paper's t1. Calibration
	// requires them within 10% on every row.
	for i, r := range tb.Rows {
		mt1, _ := strconv.ParseFloat(r[6], 64)
		pt1, _ := strconv.ParseFloat(r[9], 64)
		if math.Abs(mt1-pt1)/pt1 > 0.10 {
			t.Errorf("row %d: measured t1 %.2f vs paper %.2f (>10%% off)", i, mt1, pt1)
		}
	}
	// The ratio trend must fall from the first row to the last.
	first := parsePercent(t, tb.Rows[0][7])
	last := parsePercent(t, tb.Rows[4][7])
	if first < 4*last {
		t.Errorf("backup/conv ratio does not fall with depth: first %.1f%%, last %.1f%%", first, last)
	}
}

// TestE4MatchesEquationOne: the closed form is the paper's 1.67 %, and the
// simulator's probes at the two worst arrivals measure exactly the responses
// priced over every position.
func TestE4MatchesEquationOne(t *testing.T) {
	tb, err := E4TheoryCheck(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if theory := parsePercent(t, tb.Rows[0][1]); math.Abs(theory-1.67) > 0.05 {
		t.Errorf("closed form %.2f%%, want 1.67%%", theory)
	}
	if tb.Rows[1][1] != tb.Rows[2][1] {
		t.Errorf("priced R_l %s, probed %s", tb.Rows[1][1], tb.Rows[2][1])
	}
	var vi, lbl, viAt, lblAt, probeVI, probeLBL uint64
	var viUs, lblUs float64
	if _, err := fmt.Sscanf(tb.Notes[1], "worst responses: VI %d cycles (%f us) at cycle %d, layer-by-layer %d cycles (%f us) at cycle %d; probes: %d and %d cycles",
		&vi, &viUs, &viAt, &lbl, &lblUs, &lblAt, &probeVI, &probeLBL); err != nil {
		t.Fatalf("note %q: %v", tb.Notes[1], err)
	}
	if probeVI != vi || probeLBL != lbl {
		t.Errorf("probes measured %d and %d cycles, priced %d and %d", probeVI, probeLBL, vi, lbl)
	}
	if vi == 0 || vi >= lbl {
		t.Errorf("VI worst %d cycles not below layer-by-layer %d", vi, lbl)
	}
}

func TestE5FitsTheBoard(t *testing.T) {
	tb, err := E5Resources(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is the board; the remaining rows must sum within it per column.
	cols := []int{1, 2, 3, 4} // DSP, LUT, FF, BRAM
	for _, c := range cols {
		board, _ := strconv.Atoi(tb.Rows[0][c])
		sum := 0
		for _, r := range tb.Rows[1:] {
			v, _ := strconv.Atoi(r[c])
			sum += v
		}
		if sum > board {
			t.Errorf("column %d: blocks need %d, board has %d", c, sum, board)
		}
	}
}

func TestE2OrderingHolds(t *testing.T) {
	tb, err := E2NetworkSweep(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		layerAvg, _ := strconv.ParseFloat(r[2], 64)
		viAvg, _ := strconv.ParseFloat(r[4], 64)
		if viAvg*3 > layerAvg {
			t.Errorf("%s/%s: VI %.1f not well below layer-by-layer %.1f", r[0], r[1], viAvg, layerAvg)
		}
	}
}

func TestE1EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	r, err := E1InterruptPositions(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(r.Table.Rows))
	}
	var vi, lbl, cpuCost, viCost float64
	for i := range r.Measurements[iau.PolicyVI] {
		vi += float64(r.Measurements[iau.PolicyVI][i].LatencyCycles)
		lbl += float64(r.Measurements[iau.PolicyLayerByLayer][i].LatencyCycles)
		viCost += float64(r.Measurements[iau.PolicyVI][i].CostCycles)
		cpuCost += float64(r.Measurements[iau.PolicyCPULike][i].CostCycles)
		if c := r.Measurements[iau.PolicyLayerByLayer][i].CostCycles; c != 0 {
			t.Errorf("position %d: layer-by-layer cost %d, want 0", i, c)
		}
	}
	// Each probe measured exactly the response priced at its cycle.
	cfg := accel.Big()
	victim, err := compileVictim(cfg, Quick)
	if err != nil {
		t.Fatal(err)
	}
	pr := priceResponses(cfg, victim)
	for pol, resp := range map[iau.Policy][]uint64{iau.PolicyVI: pr.vi, iau.PolicyLayerByLayer: pr.lbl} {
		for i, m := range r.Measurements[pol] {
			if want := pr.at(resp, m.RequestCycle); m.LatencyCycles != want {
				t.Errorf("%v position %d (cycle %d): probe %d cycles, priced %d", pol, i+1, m.RequestCycle, m.LatencyCycles, want)
			}
		}
	}
	if vi/lbl > 0.25 {
		t.Errorf("VI/layer latency ratio %.2f not clearly below 1", vi/lbl)
	}
	if viCost >= cpuCost {
		t.Errorf("VI total cost %.0f not below CPU-like %.0f", viCost, cpuCost)
	}
}

func TestE6EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	r, err := E6DSLAMScheduling(Quick)
	if err != nil {
		t.Fatal(err)
	}
	vi := r.Results[iau.PolicyVI]
	none := r.Results[iau.PolicyNone]
	if vi.Tasks["FE"].DeadlineMisses != 0 {
		t.Errorf("VI missed %d FE deadlines", vi.Tasks["FE"].DeadlineMisses)
	}
	// At quick scale the native accelerator may still complete every frame;
	// the response-time gap is the robust signal.
	if vi.Tasks["FE"].MeanLatency() >= none.Tasks["FE"].MeanLatency() {
		t.Errorf("VI FE mean latency %.0f not below native %.0f",
			vi.Tasks["FE"].MeanLatency(), none.Tasks["FE"].MeanLatency())
	}
	// The 0.3% paper bound holds at full scale (EXPERIMENTS.md records
	// 0.119%); quick-scale featuremaps are 16x smaller, so the fixed
	// per-instruction fetch overhead weighs proportionally more.
	if d := vi.Degradation(); d > 0.005 {
		t.Errorf("degradation %.4f%% above the scaled bound", d*100)
	}
}
