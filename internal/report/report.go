// Package report renders the benchmark harness's result tables as
// aligned text (mirroring the layout of the paper's tables) and as
// CSV for downstream plotting.
package report

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table accumulates rows of string cells under a header.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; its cell count must match the header.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.header) {
		return fmt.Errorf("report: row has %d cells, header has %d", len(cells), len(t.header))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// MustAddRow is AddRow for programmatic rows that cannot mismatch.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Columns returns a copy of the header cells — the machine-readable
// export path (hebsbench -json) reads tables through this and Rows.
func (t *Table) Columns() []string {
	out := make([]string, len(t.header))
	copy(out, t.header)
	return out
}

// Rows returns a copy of the data rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// WriteText renders the table with aligned columns: the first column
// left-aligned (names), the rest right-aligned (numbers).
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				sb.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
			} else {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)) + c)
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	total := len(widths) - 1 + 2*(len(widths)-1)
	for _, wd := range widths {
		total += wd
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as RFC-4180-ish CSV (quoting cells that
// contain commas, quotes or newlines).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = csvEscape(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(c string) string {
	if strings.ContainsAny(c, ",\"\n") {
		return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
	}
	return c
}

// F formats a float with the given number of decimals — the harness's
// standard numeric cell.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// I formats an int cell.
func I(v int) string { return strconv.Itoa(v) }

// Section writes a titled separator line around harness output blocks.
func Section(w io.Writer, title string) error {
	if title == "" {
		return errors.New("report: empty section title")
	}
	_, err := fmt.Fprintf(w, "\n== %s ==\n\n", title)
	return err
}
