// Package table renders the harness's tables and figure series as aligned
// text and CSV. Every reproduced table/figure of the paper is ultimately
// printed through this package, so the output of `go test -bench` and
// cmd/experiments matches row-for-row.
package table

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Header  []string
	rows    [][]string
	aligned []bool // per column: true = right-align (numeric)
}

// New creates a table with a title and column headers. Columns render
// right-aligned when their header starts with '#' (stripped) or when every
// cell parses as a number.
func New(title string, header ...string) *Table {
	t := &Table{Title: title, Header: header, aligned: make([]bool, len(header))}
	for i, h := range header {
		if strings.HasPrefix(h, "#") {
			t.Header[i] = strings.TrimPrefix(h, "#")
			t.aligned[i] = true
		}
	}
	return t
}

// Row appends a row; values are formatted with %v, float64 with %.4g, and
// integers plainly.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	if len(row) != len(t.Header) {
		panic(fmt.Sprintf("table: row has %d cells for %d columns", len(row), len(t.Header)))
	}
	t.rows = append(t.rows, row)
	return t
}

func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return formatFloat(v)
	case float32:
		return formatFloat(float64(v))
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if t.aligned[i] {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Write(&b); err != nil {
		return fmt.Sprintf("table error: %v", err)
	}
	return b.String()
}

// WriteCSV renders the table as CSV (comma-separated, quoted when needed).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Series renders a labelled numeric series as a compact text block with
// proportional bars — the closest text analogue of the paper's figures.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	points []seriesPoint
}

type seriesPoint struct {
	label string
	value float64
}

// NewSeries creates an empty series block.
func NewSeries(title, xlabel, ylabel string) *Series {
	return &Series{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Point appends one (label, value) pair.
func (s *Series) Point(label string, value float64) *Series {
	s.points = append(s.points, seriesPoint{label, value})
	return s
}

// Write renders the series: one row per point with a bar scaled to the
// maximum value (40 columns).
func (s *Series) Write(w io.Writer) error {
	const barWidth = 40
	maxV := 0.0
	labW := len(s.XLabel)
	for _, p := range s.points {
		if p.value > maxV {
			maxV = p.value
		}
		if len(p.label) > labW {
			labW = len(p.label)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (%s vs %s)\n", s.Title, s.YLabel, s.XLabel)
	for _, p := range s.points {
		n := 0
		if maxV > 0 && p.value > 0 {
			n = int(p.value / maxV * barWidth)
		}
		fmt.Fprintf(&b, "%-*s  %12s  |%s\n", labW, p.label, formatFloat(p.value), strings.Repeat("#", n))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the series to a string.
func (s *Series) String() string {
	var b strings.Builder
	if err := s.Write(&b); err != nil {
		return fmt.Sprintf("series error: %v", err)
	}
	return b.String()
}
