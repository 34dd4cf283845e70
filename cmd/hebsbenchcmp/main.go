// Command hebsbenchcmp compares hebsbench -json perf sections and
// fails on wall-clock regressions — the guard behind `make
// bench-compare`. It is deliberately stdlib-only and schema-driven so
// a checked-in baseline (BENCH_pipeline.json) can gate PRs without any
// benchmark tooling beyond the repo itself.
//
// Usage:
//
//	hebsbenchcmp -old BENCH_pipeline.json -new /tmp/perf.json [-tol 10]
//	hebsbenchcmp -old b1.json,b2.json,b3.json -new n1.json,n2.json,n3.json
//
// -old and -new take comma-separated lists of equal length, paired in
// run order: old[i] and new[i] are one pair, measured back to back on
// the same host. Records are matched by (name, workers). Each pair
// gives a ratio new/old of ns_per_op, and a matched record whose median
// ratio grew by more than -tol percent is a regression. Host drift that
// slows both runs of a pair cancels in its ratio, so a slow spell or a
// slower runner does not read as a regression. With one file on each
// side this is the plain file-against-file comparison.
//
// A record whose median allocs_per_op grew at all is an allocation
// regression (allocation counts are deterministic, so unlike wall clock
// they get no noise tolerance; -alloc-slack loosens this for
// cross-version comparisons); a record present in a baseline file but
// missing from its paired new run is lost coverage. Any of the three
// fails the run with exit status 1. Records new in the fresh runs are
// reported but do not fail. An allocation regression prints a hebsvet
// cross-reference: the per-frame hot path is //hebs:noalloc-annotated,
// so `go run ./cmd/hebsvet -v` and `-list` name the function that
// started allocating.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// perfDoc is the subset of the hebsbench -json document the comparator
// consumes. Unknown fields are ignored so the schema can grow.
type perfDoc struct {
	SchemaVersion int          `json:"schema_version"`
	Perf          []perfRecord `json:"perf"`
}

type perfRecord struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerClip   float64 `json:"mb_per_clip"`
}

// key identifies a measurement across runs.
type key struct {
	Name    string
	Workers int
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hebsbenchcmp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hebsbenchcmp", flag.ContinueOnError)
	fs.SetOutput(out)
	oldList := fs.String("old", "", "baseline hebsbench -json file(s), comma-separated in run order")
	newList := fs.String("new", "", "fresh hebsbench -json file(s), comma-separated, paired with -old in run order")
	tol := fs.Float64("tol", 10, "maximum tolerated growth of the median paired ns_per_op ratio in percent")
	allocSlack := fs.Int64("alloc-slack", 0, "maximum tolerated allocs_per_op growth in objects (counts are deterministic; default 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldList == "" || *newList == "" {
		return fmt.Errorf("both -old and -new are required")
	}
	if *tol < 0 {
		return fmt.Errorf("negative -tol %v", *tol)
	}
	if *allocSlack < 0 {
		return fmt.Errorf("negative -alloc-slack %v", *allocSlack)
	}
	oldPaths, newPaths := strings.Split(*oldList, ","), strings.Split(*newList, ",")
	if len(oldPaths) != len(newPaths) {
		return fmt.Errorf("-old lists %d file(s) and -new %d: runs are compared in pairs",
			len(oldPaths), len(newPaths))
	}
	olds, err := loadAll(oldPaths)
	if err != nil {
		return err
	}
	news, err := loadAll(newPaths)
	if err != nil {
		return err
	}
	for i := range olds {
		if olds[i].SchemaVersion != olds[0].SchemaVersion || news[i].SchemaVersion != olds[0].SchemaVersion {
			return fmt.Errorf("schema version mismatch: baseline v%d, pair %d has v%d and v%d",
				olds[0].SchemaVersion, i+1, olds[i].SchemaVersion, news[i].SchemaVersion)
		}
		if len(olds[i].Perf) == 0 {
			return fmt.Errorf("%s has no perf records (run hebsbench -only perf -json)", oldPaths[i])
		}
	}

	// Report order: the first baseline run's records, by name, then
	// workers. Every pair contributes one ratio per record.
	keys := make([]key, 0, len(olds[0].Perf))
	for _, r := range olds[0].Perf {
		keys = append(keys, key{r.Name, r.Workers})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Workers < keys[j].Workers
	})
	oldByKey, newByKey := byKey(olds), byKey(news)

	failed := false
	allocRegressed := false
	for _, k := range keys {
		var ratios, oldNs, newNs []float64
		var oldAllocs, newAllocs []int64
		missing := false
		for i := range olds {
			o, ok := oldByKey[i][k]
			if !ok {
				return fmt.Errorf("%s has no %s workers=%d record, which %s has: baseline runs disagree",
					oldPaths[i], k.Name, k.Workers, oldPaths[0])
			}
			n, ok := newByKey[i][k]
			if !ok {
				missing = true
				break
			}
			ratios = append(ratios, n.NsPerOp/o.NsPerOp)
			oldNs, newNs = append(oldNs, o.NsPerOp), append(newNs, n.NsPerOp)
			oldAllocs, newAllocs = append(oldAllocs, o.AllocsPerOp), append(newAllocs, n.AllocsPerOp)
		}
		if missing {
			failed = true
			fmt.Fprintf(out, "MISSING  %-20s workers=%-3d present in baseline, absent from new run\n",
				k.Name, k.Workers)
			continue
		}
		deltaPct := 100 * (median(ratios) - 1)
		oa, na := medianInt(oldAllocs), medianInt(newAllocs)
		status := "ok"
		if deltaPct > *tol {
			status = "REGRESSION"
			failed = true
		}
		if na > oa+*allocSlack {
			status = "ALLOC-REG"
			failed = true
			allocRegressed = true
		}
		fmt.Fprintf(out, "%-10s %-20s workers=%-3d ns/op %12.0f -> %12.0f  (%+.1f%%, tol %.1f%%, %d pair(s))  allocs %d -> %d\n",
			status, k.Name, k.Workers, median(oldNs), median(newNs), deltaPct, *tol, len(ratios), oa, na)
	}
	reported := map[key]bool{}
	for _, k := range keys {
		reported[k] = true
	}
	for _, doc := range news {
		for _, n := range doc.Perf {
			if k := (key{n.Name, n.Workers}); !reported[k] {
				reported[k] = true
				fmt.Fprintf(out, "new       %-20s workers=%-3d ns/op %12.0f (no baseline)\n",
					n.Name, n.Workers, n.NsPerOp)
			}
		}
	}
	if allocRegressed {
		fmt.Fprintf(out, "allocs_per_op grew: the per-frame hot path is //hebs:noalloc-annotated, so run\n"+
			"`go run ./cmd/hebsvet -v` for the escaping expression and `go run ./cmd/hebsvet -list`\n"+
			"for the annotated-function inventory; a new allocation outside those functions is\n"+
			"per-clip bookkeeping and needs a baseline update instead.\n")
	}
	if failed {
		return fmt.Errorf("perf comparison failed (tolerance %.1f%%)", *tol)
	}
	return nil
}

func loadAll(paths []string) ([]*perfDoc, error) {
	docs := make([]*perfDoc, len(paths))
	for i, p := range paths {
		d, err := load(p)
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}

// byKey indexes each run's records by (name, workers).
func byKey(docs []*perfDoc) []map[key]perfRecord {
	maps := make([]map[key]perfRecord, len(docs))
	for i, d := range docs {
		maps[i] = map[key]perfRecord{}
		for _, r := range d.Perf {
			maps[i][key{r.Name, r.Workers}] = r
		}
	}
	return maps
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianInt is median for allocation counts; an even count takes the
// upper middle value, so a one-sided rise in a pair of runs still shows.
func medianInt(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func load(path string) (*perfDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc perfDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}
