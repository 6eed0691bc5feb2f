// Package exper implements the experiment harness: one function per
// experiment (E1–E14; ARCHITECTURE.md §1's experiments row indexes them),
// each regenerating the corresponding figure or case-study claim of the
// paper as a printable table.
// cmd/experiments runs them all; the repository-root benchmarks wrap them
// as testing.B targets.
package exper

import (
	"fmt"
	"io"
	"strings"

	"trader/internal/core"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/tvsim"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry the paper-vs-measured commentary printed under the
	// table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// NewMonitoredTV builds the standard monitored TV: the simulator with
// tvsim's reference monitor attached to its bus.
func NewMonitoredTV(seed int64, cfg tvsim.Config) (*sim.Kernel, *tvsim.TV, *core.Monitor, error) {
	k := sim.NewKernel(seed)
	tv := tvsim.New(k, cfg)
	mon, err := tvsim.NewMonitor(k, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	mon.AttachBus(tv.Bus())
	return k, tv, mon, nil
}

// mustModelStart panics on model start failure (experiment harness setup).
func mustModelStart(m *statemachine.Model) {
	if err := m.Start(); err != nil {
		panic(err)
	}
}
