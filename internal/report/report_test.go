package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("name", "saving")
	if err := tb.AddRow("lena", "47.53"); err != nil {
		t.Fatal(err)
	}
	tb.MustAddRow("baboon", "49.52")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator line: %q", lines[1])
	}
	// Numbers right-aligned: the two saving cells end at the same column.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned:\n%q\n%q", lines[2], lines[3])
	}
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d, want 2", len(tb.rows))
	}
}

func TestAddRowMismatch(t *testing.T) {
	tb := NewTable("a", "b")
	if err := tb.AddRow("only-one"); err == nil {
		t.Error("cell count mismatch should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on mismatch")
		}
	}()
	tb.MustAddRow("x")
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("name", "note")
	tb.MustAddRow("a,b", `say "hi"`)
	tb.MustAddRow("plain", "multi\nline")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"a,b"`) {
		t.Errorf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %s", out)
	}
	if !strings.Contains(out, "\"multi\nline\"") {
		t.Errorf("newline cell not quoted: %s", out)
	}
	if !strings.HasPrefix(out, "name,note\n") {
		t.Errorf("header wrong: %s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(47.534, 2) != "47.53" {
		t.Errorf("F = %q", F(47.534, 2))
	}
	if F(5, 0) != "5" {
		t.Errorf("F(5,0) = %q", F(5, 0))
	}
	if I(42) != "42" {
		t.Errorf("I = %q", I(42))
	}
}

func TestSection(t *testing.T) {
	var sb strings.Builder
	if err := Section(&sb, "Table 1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "== Table 1 ==") {
		t.Errorf("section output: %q", sb.String())
	}
	if err := Section(&sb, ""); err == nil {
		t.Error("empty title should error")
	}
}

func TestEmptyTable(t *testing.T) {
	tb := NewTable("x")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x") {
		t.Error("empty table should still print the header")
	}
}
