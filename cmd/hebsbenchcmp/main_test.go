package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `{"schema_version":1,"perf":[
	{"name":"video/steady16","workers":1,"ns_per_op":1000000,"allocs_per_op":23},
	{"name":"video/steady16","workers":4,"ns_per_op":400000,"allocs_per_op":34}
]}`

func TestCompareWithinTolerance(t *testing.T) {
	oldPath := writeDoc(t, "old.json", baseline)
	newPath := writeDoc(t, "new.json", `{"schema_version":1,"perf":[
		{"name":"video/steady16","workers":1,"ns_per_op":1050000,"allocs_per_op":23},
		{"name":"video/steady16","workers":4,"ns_per_op":410000,"allocs_per_op":34},
		{"name":"image/exact256","workers":1,"ns_per_op":900000,"allocs_per_op":1}
	]}`)
	var sb strings.Builder
	if err := run([]string{"-old", oldPath, "-new", newPath, "-tol", "10"}, &sb); err != nil {
		t.Fatalf("within-tolerance compare failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "no baseline") {
		t.Errorf("new-record note missing from report:\n%s", sb.String())
	}
}

func TestCompareRegressionFails(t *testing.T) {
	oldPath := writeDoc(t, "old.json", baseline)
	newPath := writeDoc(t, "new.json", `{"schema_version":1,"perf":[
		{"name":"video/steady16","workers":1,"ns_per_op":1200000,"allocs_per_op":23},
		{"name":"video/steady16","workers":4,"ns_per_op":400000,"allocs_per_op":34}
	]}`)
	var sb strings.Builder
	err := run([]string{"-old", oldPath, "-new", newPath, "-tol", "10"}, &sb)
	if err == nil {
		t.Fatalf("20%% regression passed a 10%% tolerance:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Errorf("report does not flag the regression:\n%s", sb.String())
	}
	// The same delta passes a looser gate.
	if err := run([]string{"-old", oldPath, "-new", newPath, "-tol", "25"}, &strings.Builder{}); err != nil {
		t.Errorf("20%% regression failed a 25%% tolerance: %v", err)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	oldPath := writeDoc(t, "old.json", baseline)
	// ns/op is flat — only the allocation count grew. Wall-clock
	// tolerance must not excuse it.
	newPath := writeDoc(t, "new.json", `{"schema_version":1,"perf":[
		{"name":"video/steady16","workers":1,"ns_per_op":1000000,"allocs_per_op":39},
		{"name":"video/steady16","workers":4,"ns_per_op":400000,"allocs_per_op":34}
	]}`)
	var sb strings.Builder
	err := run([]string{"-old", oldPath, "-new", newPath, "-tol", "10"}, &sb)
	if err == nil {
		t.Fatalf("allocs_per_op growth 23 -> 39 passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ALLOC-REG") {
		t.Errorf("report does not flag the allocation regression:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "hebsvet") {
		t.Errorf("report does not point at the hebsvet cross-reference:\n%s", sb.String())
	}
	// -alloc-slack loosens the gate for deliberate baseline moves.
	if err := run([]string{"-old", oldPath, "-new", newPath, "-alloc-slack", "16"}, &strings.Builder{}); err != nil {
		t.Errorf("allocs growth within -alloc-slack failed: %v", err)
	}
}

func TestCompareMissingRecordFails(t *testing.T) {
	oldPath := writeDoc(t, "old.json", baseline)
	newPath := writeDoc(t, "new.json", `{"schema_version":1,"perf":[
		{"name":"video/steady16","workers":1,"ns_per_op":1000000,"allocs_per_op":23}
	]}`)
	var sb strings.Builder
	if err := run([]string{"-old", oldPath, "-new", newPath}, &sb); err == nil {
		t.Fatalf("lost coverage passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("report does not flag the missing record:\n%s", sb.String())
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	oldPath := writeDoc(t, "old.json", baseline)
	newPath := writeDoc(t, "new.json", `{"schema_version":2,"perf":[
		{"name":"video/steady16","workers":1,"ns_per_op":1000000}
	]}`)
	if err := run([]string{"-old", oldPath, "-new", newPath}, &strings.Builder{}); err == nil {
		t.Fatal("schema version mismatch accepted")
	}
}

func TestCompareEmptyBaselineRejected(t *testing.T) {
	oldPath := writeDoc(t, "old.json", `{"schema_version":1,"perf":[]}`)
	if err := run([]string{"-old", oldPath, "-new", oldPath}, &strings.Builder{}); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// run1 is one hebsbench perf run with a single record at ns/op and
// allocs/op.
func run1(t *testing.T, name string, ns float64, allocs int) string {
	t.Helper()
	return writeDoc(t, name, fmt.Sprintf(`{"schema_version":1,"perf":[
		{"name":"plc/ghe256","workers":1,"ns_per_op":%g,"allocs_per_op":%d}
	]}`, ns, allocs))
}

func TestComparePairedListLengthMismatch(t *testing.T) {
	a, b := run1(t, "a.json", 1e6, 3), run1(t, "b.json", 1e6, 3)
	err := run([]string{"-old", a + "," + b, "-new", a}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "pairs") {
		t.Fatalf("2 baseline runs against 1 new run: err = %v, want a pairing error", err)
	}
}

// TestComparePairedDriftCancels runs three pairs on a host that slows
// down by half each pair. Within a pair both sides slow alike, so the
// median paired ratio stays at +2% and passes a 10% gate; the same
// files compared unpaired, the first baseline against the last new
// run, read +104%.
func TestComparePairedDriftCancels(t *testing.T) {
	var olds, news []string
	for i, scale := range []float64{1, 1.5, 2} {
		olds = append(olds, run1(t, fmt.Sprintf("old%d.json", i), 1e6*scale, 3))
		news = append(news, run1(t, fmt.Sprintf("new%d.json", i), 1.02e6*scale, 3))
	}
	var sb strings.Builder
	if err := run([]string{"-old", strings.Join(olds, ","), "-new", strings.Join(news, ","), "-tol", "10"}, &sb); err != nil {
		t.Fatalf("drift shared by both sides failed the paired gate: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "+2.0%") || !strings.Contains(sb.String(), "3 pair(s)") {
		t.Errorf("report does not show the +2%% median over 3 pairs:\n%s", sb.String())
	}
	if err := run([]string{"-old", olds[0], "-new", news[2], "-tol", "10"}, &strings.Builder{}); err == nil {
		t.Error("unpaired first-vs-last comparison passed; the fixture shows no drift")
	}
}

// TestComparePairedRegressionFails: a change that is 20% slower in two
// of three pairs fails, even though its third pair ran in a fast spell.
func TestComparePairedRegressionFails(t *testing.T) {
	olds := []string{run1(t, "o1.json", 1e6, 3), run1(t, "o2.json", 1e6, 3), run1(t, "o3.json", 1e6, 3)}
	news := []string{run1(t, "n1.json", 1.2e6, 3), run1(t, "n2.json", 0.8e6, 3), run1(t, "n3.json", 1.2e6, 3)}
	var sb strings.Builder
	err := run([]string{"-old", strings.Join(olds, ","), "-new", strings.Join(news, ","), "-tol", "10"}, &sb)
	if err == nil || !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("median paired +20%% passed a 10%% gate (err %v):\n%s", err, sb.String())
	}
	// The allocation gate reads the median count: one run's extra
	// allocation does not fail it, two of three do.
	news = []string{run1(t, "a1.json", 1e6, 4), run1(t, "a2.json", 1e6, 3), run1(t, "a3.json", 1e6, 3)}
	if err := run([]string{"-old", strings.Join(olds, ","), "-new", strings.Join(news, ",")}, &strings.Builder{}); err != nil {
		t.Errorf("one run of three with an extra allocation failed: %v", err)
	}
	news[1] = run1(t, "a4.json", 1e6, 4)
	sb.Reset()
	if err := run([]string{"-old", strings.Join(olds, ","), "-new", strings.Join(news, ",")}, &sb); err == nil || !strings.Contains(sb.String(), "ALLOC-REG") {
		t.Errorf("allocs 3 -> 4 in two of three runs passed (err %v):\n%s", err, sb.String())
	}
}
