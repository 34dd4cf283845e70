// Command hebs applies Histogram Equalization for Backlight Scaling to
// a single image and reports the backlight factor, distortion and
// power saving. Input formats: PGM/PPM/PNG; a named synthetic
// benchmark image can be used instead of a file via -bench.
//
// Usage:
//
//	hebs -in photo.png -distortion 10 -out transformed.png
//	hebs -bench lena -range 150 -out lena150.pgm -preview preview.pgm
//
// Exactly one of -distortion or -range selects the operating point.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/imageio"
	"hebs/internal/obs"
	"hebs/internal/power"
	"hebs/internal/rgb"
	"hebs/internal/sipi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hebs:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("hebs", flag.ContinueOnError)
	fs.SetOutput(out)
	diag := obs.AddCLIFlags(fs)
	in := fs.String("in", "", "input image file (.pgm/.ppm/.png)")
	bench := fs.String("bench", "", "use a synthetic benchmark image instead of -in (e.g. lena)")
	outPath := fs.String("out", "", "write the transformed (frame-buffer) image here")
	preview := fs.String("preview", "", "write the contrast-compensated preview here")
	dither := fs.String("dither", "", "write the error-diffusion dithered preview here (grayscale)")
	distortion := fs.Float64("distortion", 0, "maximum tolerable distortion in percent")
	dynRange := fs.Int("range", 0, "target dynamic range (bypasses the distortion lookup)")
	segments := fs.Int("segments", driver.DefaultConfig.Sources, "PLC segment budget m of the panel's reference ladder (not with a multi-zone -backend)")
	exact := fs.Bool("exact", true, "per-image range search (false: global characteristic curve)")
	voltages := fs.Bool("voltages", false, "print the PLRD reference voltage program")
	resize := fs.Int("resize", 0, "resample the input to this edge length before processing (0 = keep)")
	colorMode := fs.Bool("color", false, "keep color: decide on luma, apply Λ to all channels")
	curvePath := fs.String("curve", "", "characteristic-curve JSON (from hebschar -save); implies curve-lookup mode")
	workers := fs.Int("workers", 1, "worker goroutines for the parallel pipeline (0 = all CPUs, 1 = serial)")
	backendSpec := fs.String("backend", "", "backlight backend: ccfl (the default global lamp), led:RxC or oled")
	zoneTable := fs.Bool("zones", false, "print the per-zone operating points (zoned backends only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := diag.Start(); err != nil {
		return err
	}
	defer func() {
		if stopErr := diag.Stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()

	var colorImg *rgb.Image
	if *colorMode {
		if *in == "" {
			return fmt.Errorf("-color requires -in (benchmark images are grayscale)")
		}
		var err error
		colorImg, err = imageio.LoadColor(*in)
		if err != nil {
			return err
		}
	}

	img, err := loadInput(*in, *bench)
	if err != nil {
		return err
	}
	if *resize < 0 {
		return fmt.Errorf("negative -resize %d", *resize)
	}
	if *resize > 0 {
		if *colorMode {
			return fmt.Errorf("-resize is not supported together with -color")
		}
		img, err = img.Resize(*resize, *resize)
		if err != nil {
			return err
		}
	}
	if (*distortion > 0) == (*dynRange > 0) {
		return fmt.Errorf("specify exactly one of -distortion or -range")
	}

	// SIGINT cancels the pipeline between stages (a second signal kills
	// the process via the restored default handler).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := driver.DefaultConfig
	opts := core.Options{
		MaxDistortionPercent: *distortion,
		// A direct -range bypasses the range search entirely, so the
		// -exact default must not conflict with it.
		DynamicRange: *dynRange,
		ExactSearch:  *exact && *dynRange == 0,
		Segments:     *segments,
		Driver:       &cfg,
	}
	if *curvePath != "" {
		curve, err := chart.LoadJSON(*curvePath)
		if err != nil {
			return err
		}
		opts.Curve = curve
		opts.ExactSearch = false
	}
	// The CLI convention maps 0 to "all CPUs"; the engine's own zero
	// value means serial, which the flag expresses as 1 (the default).
	ew := *workers
	if ew == 0 {
		ew = -1
	}
	eng := core.NewEngine(core.EngineOptions{Workers: ew})
	if *backendSpec != "" {
		b, err := backlight.Parse(*backendSpec)
		if err != nil {
			return err
		}
		if c, ok := b.(*backlight.CCFL); ok {
			// The global lamp stays on the classic pipeline with its
			// subsystem resolved from the backend — outputs identical to
			// a run without -backend.
			sub := c.Subsystem()
			opts.Subsystem = &sub
		} else {
			if *colorMode || *voltages || *preview != "" || *dither != "" {
				return fmt.Errorf("-backend %s supports only -out output (no -color/-voltages/-preview/-dither)", b.Name())
			}
			// The zoned report shows no PLRD program, and a grid of
			// more than one zone applies each zone's Φ as a digital LUT:
			// there is no ladder for -segments to budget.
			opts.Driver = nil
			if b.Grid().Zones() > 1 {
				if flagSet(fs, "segments") {
					return fmt.Errorf("-segments budgets the panel's reference ladder; -backend %s applies each zone's Φ as a digital LUT", b.Name())
				}
				opts.Segments = 0
			}
			return runZoned(ctx, eng, img, opts, b, *outPath, *zoneTable, out)
		}
	} else if *zoneTable {
		return fmt.Errorf("-zones requires a zoned -backend")
	}
	var res *core.Result
	var colorRes *core.ColorResult
	if *colorMode {
		colorRes, err = eng.ProcessColor(ctx, colorImg, opts)
		if err != nil {
			return err
		}
		res = colorRes.Result
	} else {
		res, err = eng.Process(ctx, img, opts)
		if err != nil {
			return err
		}
	}

	st := img.Statistics()
	stats := res.Stats()
	fmt.Fprintf(out, "input:                %dx%d, dynamic range %d, %d levels\n",
		img.W, img.H, st.DynamicRng, st.NumLevels)
	fmt.Fprintf(out, "admissible range R:   %d\n", stats.Range)
	fmt.Fprintf(out, "backlight factor β:   %.4f\n", stats.Beta)
	if stats.PredictedDistortion > 0 {
		fmt.Fprintf(out, "predicted distortion: %.2f%%\n", stats.PredictedDistortion)
	}
	fmt.Fprintf(out, "achieved distortion:  %.2f%%\n", stats.AchievedDistortion)
	fmt.Fprintf(out, "PLC segments:         %d (MSE %.3f levels²)\n",
		stats.Segments, stats.PLCError)
	fmt.Fprintf(out, "power:                %.3f W -> %.3f W\n", stats.PowerBefore, stats.PowerAfter)
	fmt.Fprintf(out, "power saving:         %.2f%%\n", stats.PowerSavingPercent)
	sys, err := power.SmartBadgeActive.SystemSavingPercent(stats.PowerSavingPercent)
	if err == nil {
		fmt.Fprintf(out, "system saving:        %.2f%% (active mode, SmartBadge share)\n", sys)
	}
	fmt.Fprintf(out, "hardware realization: MSE %.3f levels²\n", stats.RealizationError)

	if *voltages {
		fmt.Fprintln(out, "\nPLRD reference voltages (Eq. 10):")
		for i, tap := range res.Program.Taps {
			fmt.Fprintf(out, "  V%-2d at code %3d: %.4f V\n", i, tap.Code, tap.Voltage)
		}
	}

	if *outPath != "" {
		if colorRes != nil {
			err = imageio.SaveColor(*outPath, colorRes.TransformedColor)
		} else {
			err = imageio.Save(*outPath, res.Transformed)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote transformed image to %s\n", *outPath)
	}
	if *preview != "" {
		if colorRes != nil {
			p, err := colorRes.CompensatedColorPreview()
			if err != nil {
				return err
			}
			if err := imageio.SaveColor(*preview, p); err != nil {
				return err
			}
		} else {
			p, err := res.CompensatedPreview()
			if err != nil {
				return err
			}
			if err := imageio.Save(*preview, p); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "wrote compensated preview to %s\n", *preview)
	}
	if *dither != "" {
		p, err := res.DitheredPreview()
		if err != nil {
			return err
		}
		if err := imageio.Save(*dither, p); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote dithered preview to %s\n", *dither)
	}
	return nil
}

// runZoned routes a single image through the per-zone engine path and
// reports the zone field instead of the single-β program.
func runZoned(ctx context.Context, eng *core.Engine, img *gray.Image, opts core.Options,
	b backlight.Backend, outPath string, zoneTable bool, out io.Writer) error {
	zr, err := eng.ProcessZoned(ctx, img, opts, b, nil)
	if err != nil {
		return err
	}
	defer zr.Release()

	g := b.Grid()
	fmt.Fprintf(out, "input:                %dx%d\n", img.W, img.H)
	fmt.Fprintf(out, "backend:              %s (%dx%d zones)\n", b.Name(), g.Rows, g.Cols)
	fmt.Fprintf(out, "mean β:               %.4f (min %.4f, max %.4f, spread %.4f)\n",
		zr.BetaMean, zr.BetaMin, zr.BetaMax, zr.BetaSpread)
	fmt.Fprintf(out, "smoothing sweeps:     %d\n", zr.SmoothSweeps)
	fmt.Fprintf(out, "achieved distortion:  %.2f%%\n", zr.AchievedDistortion)
	fmt.Fprintf(out, "power:                %.3f W -> %.3f W\n", zr.PowerBefore, zr.PowerAfter)
	fmt.Fprintf(out, "power saving:         %.2f%%\n", zr.PowerSavingPercent)
	if zoneTable {
		fmt.Fprintln(out, "\nper-zone operating points:")
		for _, z := range zr.Zones {
			fmt.Fprintf(out, "  zone %3d [%3d,%3d)x[%3d,%3d): R %3d  β* %.4f  β %.4f  distortion %6.2f%%\n",
				z.Zone, z.X0, z.X1, z.Y0, z.Y1, z.Range, z.TargetBeta, z.Beta, z.Distortion)
		}
	}
	if outPath != "" {
		if err := imageio.Save(outPath, zr.Transformed); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote transformed image to %s\n", outPath)
	}
	return nil
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func loadInput(in, bench string) (*gray.Image, error) {
	switch {
	case in != "" && bench != "":
		return nil, fmt.Errorf("specify only one of -in and -bench")
	case in != "":
		return imageio.Load(in)
	case bench != "":
		return sipi.Generate(bench, sipi.DefaultSize, sipi.DefaultSize)
	default:
		return nil, fmt.Errorf("specify -in FILE or -bench NAME")
	}
}
