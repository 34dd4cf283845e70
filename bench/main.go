// Command bench is the HEBS end-to-end benchmark. It drives the public
// APIs of core, video and backlight with four seeded workloads and
// prints every end-to-end metric with its unit, or, with -trace 1, the
// per-layer metrics of a traced pass; see README.md. Build and run it
// from the repository root with bench/run.sh.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childTimeout bounds one workload's measured run, so the whole
// benchmark run ends within three minutes.
const childTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 1, "input seed; seed 2 is held out for checking claims")
	seconds := fs.Int("seconds", 10, "op time to measure per workload, in seconds (whole rounds)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans as JSON to this file")
	out := fs.String("out", "", "write the full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two reports: -compare A.json[,A2.json...] B.json[,B2.json...]")
	child := fs.Bool("child", false, "internal: run one round and print its report")
	traced := fs.Bool("traced", false, "internal: trace the child's round")
	round := fs.Int("round", 0, "internal: the child's round number")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report lists")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *child:
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		rep, err := runRound(ctx, w, *seed, *round, *traced, *traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	rep := &report{
		Schema: reportSchema, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Env:       envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Workloads: make(map[string]*workloadResult),
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout*time.Duration(len(ws)))
	defer cancel()
	if *trace == 1 {
		for _, w := range ws {
			res, err := traceWorkload(ctx, w, *seed, spansPath(*traceOut, w.name, len(ws)))
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rep.Workloads[w.name] = res
		}
	} else {
		rounds, err := measure(ctx, ws, *seed, *seconds)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, w := range ws {
			res, err := summarize(rounds[w.name])
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			rep.Workloads[w.name] = res
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printReport(stdout, rep, ws)
	return 0
}

// spansPath names a workload's spans file: the given path for a single
// workload, with the workload's name inserted before the extension when
// several workloads share one -trace-out.
func spansPath(path, workload string, n int) string {
	if path == "" || n == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + workload + ext
}

// lineMetric is one metric of the final result line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// printReport prints each workload's metrics as a table, then the
// result line. The line holds the declared end-to-end metrics (or every
// per-layer metric of a traced pass), prefixed by the workload name
// when more than one workload ran.
func printReport(w io.Writer, rep *report, ws []*workload) {
	fmt.Fprintf(w, "# seed %d, %d s per workload, nproc %d, GOMAXPROCS %d, %s\n",
		rep.Seed, rep.Seconds, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.Go)
	line := resultLine{Correct: true, Metrics: make(map[string]lineMetric)}
	for _, wl := range ws {
		res := rep.Workloads[wl.name]
		fmt.Fprintf(w, "%s: %d rounds, %d ops, %d frames, %d/%d failed, digest %s\n",
			wl.name, res.Rounds, res.Ops, res.Frames, res.Failed, res.Attempted, res.Digest)
		for _, f := range res.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		defs, vals := endToEnd, res.Metrics
		if rep.Trace {
			defs, vals = perLayer, res.PerLayer
		}
		for _, d := range defs {
			mv := vals[d.name]
			fmt.Fprintf(w, "  %-36s %14.6g %-8s spread %.3g\n", d.name, mv.Value, mv.Unit, mv.Spread)
			if rep.Trace || d.declared() {
				key := d.name
				if len(ws) > 1 {
					key = wl.name + "." + d.name
				}
				line.Metrics[key] = lineMetric{Value: mv.Value, Unit: mv.Unit}
			}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		// A map of finite floats and strings always marshals.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// runCompare loads the bounds from BENCHMARK.json in the current
// directory and both report lists, and compares them.
func runCompare(a, b string, stdout, stderr io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ra, err := loadReports(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rb, err := loadReports(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if bad := compareReports(spec.bounds(), ra, rb, stdout); bad > 0 {
		fmt.Fprintf(stdout, "%d regressions or digest differences\n", bad)
		return 1
	}
	return 0
}
