// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated stack. Each experiment returns a Table
// whose rows mirror what the paper reports; EXPERIMENTS.md records the
// paper-vs-measured comparison. The cmd/inca-bench binary drives these
// runners.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// Table is a formatted experiment result.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// WriteJSON serialises a batch of tables as an indented JSON array, the
// machine-readable counterpart of String/Markdown for tracking results
// across commits (inca-bench -benchjson).
func WriteJSON(w io.Writer, tables []*Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tables)
}

// Scale selects experiment fidelity: Full reproduces the paper's input
// sizes (480x640 camera, ResNet-101 PR); Quick shrinks the spatial size so
// the whole suite runs in seconds while preserving every qualitative
// relationship.
type Scale int

// Experiment scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// inputSize returns the camera resolution for the scale.
func (s Scale) inputSize() (h, w int) {
	if s == Full {
		return 480, 640
	}
	return 120, 160
}

// compileNet synthesizes g's weights from seed and lowers the network for
// cfg under the given interrupt-point placement: the one way an experiment
// turns a model into an instruction stream.
func compileNet(cfg accel.Config, g *model.Network, vi compiler.VIPolicy, seed uint64) (*isa.Program, error) {
	q, err := quant.Synthesize(g, seed)
	if err != nil {
		return nil, err
	}
	opt := cfg.CompilerOptions()
	opt.VI = vi
	return compiler.Compile(q, opt)
}
