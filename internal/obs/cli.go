// CLI diagnostics hooks shared by the four commands: pprof CPU/heap
// profiles, a JSON span dump, a metrics-registry snapshot and the live
// telemetry server (-telemetry), all behind standard flags so every
// tool gains the same observability surface.
package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// DefaultSLOSpec is the -slo default: the per-frame latency budget the
// ROADMAP's daemon work gates on — a windowed p99 under a 30 fps
// refresh budget (~33ms).
const DefaultSLOSpec = "video.frame.seconds:p99<33.4ms"

// DefaultSLOMetrics are the latency histograms the telemetry wiring
// always tracks with rolling windows, budget or not, so /debug/slo
// reports windowed p50/p95/p99 per pipeline stage. The names mirror
// the stage metrics internal/core and internal/video register (string
// coupling only — obs stays dependency-free).
var DefaultSLOMetrics = []string{
	"video.frame.seconds",
	"core.stage.range_select.seconds",
	"core.stage.histogram.seconds",
	"core.stage.equalize.seconds",
	"core.stage.plc.seconds",
	"core.stage.driver.seconds",
	"core.stage.apply.seconds",
	"core.stage.distortion.seconds",
	"core.stage.power.seconds",
}

// CLIFlags wires the observability flags into a FlagSet and manages
// their lifecycle around a command run.
type CLIFlags struct {
	cpuProfile *string
	memProfile *string
	traceOut   *string
	metricsOut *string

	telemetry     *string
	telemetryHold *time.Duration
	sloSpec       *string
	flightOut     *string
	flightSize    *int

	cpuFile    *os.File
	collector  *Collector
	prevSink   Sink
	server     *Server
	tracker    *SLOTracker
	flight     *FlightRecorder
	prevFlight *FlightRecorder
	started    bool
}

// AddCLIFlags registers -cpuprofile, -memprofile, -trace-out,
// -metrics-out and the live-telemetry flags (-telemetry,
// -telemetry-hold, -slo, -flight-out, -flight-size) on fs and returns
// the handle to Start/Stop them around the run.
func AddCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	c.cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	c.memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	c.traceOut = fs.String("trace-out", "", "write the pipeline span trace as JSON to this file")
	c.metricsOut = fs.String("metrics-out", "", "write the metrics registry snapshot as JSON to this file")
	c.telemetry = fs.String("telemetry", "", "serve live telemetry (/metrics, /debug/slo, /debug/frames, pprof) on this address (e.g. :9090)")
	c.telemetryHold = fs.Duration("telemetry-hold", 0, "keep the telemetry server up this long after the run finishes (scrape window)")
	c.sloSpec = fs.String("slo", DefaultSLOSpec, "SLO budgets as metric:pNN<budget[,...] (requires -telemetry; empty disables budgets)")
	c.flightOut = fs.String("flight-out", "", "write the frame flight-recorder ring as JSON to this file on exit (enables recording)")
	c.flightSize = fs.Int("flight-size", DefaultFlightSize, "frame flight-recorder ring capacity")
	return c
}

// Collector returns the span collector, installing one as the global
// sink on first use — commands that render span timelines (hebsvideo)
// call this to force collection even without -trace-out.
func (c *CLIFlags) Collector() *Collector {
	if c.collector == nil {
		c.collector = NewCollector()
		c.prevSink = SetSink(c.collector)
	}
	return c.collector
}

// Start begins CPU profiling, installs the span collector and brings
// up the live-telemetry layer (flight recorder, SLO tracker, HTTP
// server) when the corresponding flags were given. Call after flag
// parsing.
func (c *CLIFlags) Start() error {
	c.started = true
	if *c.traceOut != "" {
		c.Collector()
	}
	// The flight recorder turns on when anything consumes it: a dump
	// file or the /debug/frames endpoint. Otherwise the pipeline pays
	// only the nil check per frame.
	if *c.flightOut != "" || *c.telemetry != "" {
		c.flight = NewFlightRecorder(*c.flightSize)
		c.prevFlight = SetFlightRecorder(c.flight)
	}
	if *c.telemetry != "" {
		c.tracker = NewSLOTracker(Default(), DefaultSLOWindow)
		for _, m := range DefaultSLOMetrics {
			c.tracker.Track(m)
		}
		budgets, err := ParseSLOSpecs(*c.sloSpec)
		if err != nil {
			return err
		}
		for _, b := range budgets {
			if err := c.tracker.SetBudget(b); err != nil {
				return err
			}
		}
		// A breach mid-run dumps the ring immediately, while the slow
		// frames are still in it — the exit-time dump may be too late
		// on a long run.
		if *c.flightOut != "" {
			out := *c.flightOut
			rec := c.flight
			c.tracker.OnBreach = func(*SLOReport) {
				_ = writeFile(out, rec.WriteJSON) //hebslint:allow errdrop best-effort breach dump; the exit-time write reports errors
			}
		}
		c.server = NewServer(*c.telemetry, ServerOptions{
			Registry: Default(),
			SLO:      c.tracker,
			Flight:   c.flight,
		})
		if err := c.server.Start(context.Background()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving on %s\n", c.server.URL())
	}
	if *c.cpuProfile != "" {
		f, err := os.Create(*c.cpuProfile)
		if err != nil {
			return fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profiler error takes precedence
			return fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		c.cpuFile = f
	}
	return nil
}

// SLO returns the SLO tracker behind /debug/slo, or nil when
// -telemetry was not given — harnesses call Check on it to gate
// programmatically.
func (c *CLIFlags) SLO() *SLOTracker { return c.tracker }

// Flight returns the flight recorder installed by Start, or nil when
// recording is disabled.
func (c *CLIFlags) Flight() *FlightRecorder { return c.flight }

// Stop finishes profiling and writes the requested artifacts. It is
// safe to call on an un-Started handle (no-op) and restores the
// previous span sink.
func (c *CLIFlags) Stop() error {
	if !c.started {
		return nil
	}
	c.started = false
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(c.cpuFile.Close())
		c.cpuFile = nil
	}
	if c.collector != nil {
		if *c.traceOut != "" {
			keep(writeFile(*c.traceOut, c.collector.WriteJSON))
		}
		SetSink(c.prevSink)
		c.prevSink = nil
	}
	if c.tracker != nil {
		// Final budget check: bumps breach counters (and the OnBreach
		// flight dump) so a run that never got scraped still records
		// whether it met its SLOs.
		c.tracker.Check()
	}
	if c.server != nil {
		if hold := *c.telemetryHold; hold > 0 {
			// Scrape window: keep serving after the work finishes so an
			// external scraper (the CI smoke job, a human with curl) can
			// read the final state. An already-dead server ends the hold
			// early.
			select {
			case <-time.After(hold):
			case <-c.server.Done():
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(c.server.Shutdown(sctx))
		cancel()
		c.server = nil
		c.tracker = nil
	}
	if c.flight != nil {
		if *c.flightOut != "" {
			keep(writeFile(*c.flightOut, c.flight.WriteJSON))
		}
		SetFlightRecorder(c.prevFlight)
		c.flight = nil
		c.prevFlight = nil
	}
	if *c.metricsOut != "" {
		keep(writeFile(*c.metricsOut, Default().WriteJSON))
	}
	if *c.memProfile != "" {
		runtime.GC() // materialize up-to-date allocation statistics
		keep(writeFile(*c.memProfile, pprof.WriteHeapProfile))
	}
	return firstErr
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}
