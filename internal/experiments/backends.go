// Backend frontier: the zoned-architecture counterpart of Table 1.
// Where the paper evaluates one global CCFL lamp, this experiment runs
// the same suite at the same distortion budgets through each backlight
// architecture (global CCFL, N×M LED array, OLED) via core's zoned
// engine path, so the per-backend numbers are directly comparable —
// identical images, budgets, metric and search discipline.
package experiments

import (
	"fmt"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/parallel"
	"hebs/internal/report"
)

// BackendRow is one (backend, budget) cell of the frontier: suite-mean
// operating point and power for that architecture at that budget.
type BackendRow struct {
	Backend string
	Budget  float64
	// MeanSaving is the suite-mean power saving percent against the
	// same backend at full drive (β=1 everywhere).
	MeanSaving float64
	// MeanBeta and MeanBetaSpread summarize the applied zone fields:
	// the suite means of each frame's β mean and max−min spread (the
	// spread is 0 for single-zone backends by construction).
	MeanBeta       float64
	MeanBetaSpread float64
	// MeanPowerAfter is the suite-mean absolute power (watts) at the
	// chosen operating points — the cross-backend comparable number.
	MeanPowerAfter float64
}

// BackendFrontier evaluates each backend over the suite at each
// distortion budget through the zoned engine path. Rows are ordered
// backend-major in the given order, budgets inner.
func BackendFrontier(cfg Config, backends []backlight.Backend, budgets []float64) ([]BackendRow, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("experiments: no backends")
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("experiments: no budgets")
	}
	for _, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("experiments: non-positive budget %v", b)
		}
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.EngineOptions{Workers: 1})
	out := make([]BackendRow, 0, len(backends)*len(budgets))
	for _, b := range backends {
		for _, budget := range budgets {
			row := BackendRow{Backend: b.Name(), Budget: budget}
			type cell struct{ saving, beta, spread, after float64 }
			cells := make([]cell, len(suite))
			err := parallel.ForEach(cfg.context(), len(suite), cfg.Workers, func(i int) error {
				zr, err := eng.ProcessZoned(cfg.context(), suite[i].Image, core.Options{
					MaxDistortionPercent: budget,
					ExactSearch:          true,
					Metric:               cfg.Metric,
					Subsystem:            cfg.Subsystem,
				}, b, nil)
				if err != nil {
					return err
				}
				cells[i] = cell{zr.PowerSavingPercent, zr.BetaMean, zr.BetaSpread, zr.PowerAfter}
				zr.Release()
				return nil
			})
			if err != nil {
				return nil, err
			}
			for i := range cells {
				row.MeanSaving += cells[i].saving
				row.MeanBeta += cells[i].beta
				row.MeanBetaSpread += cells[i].spread
				row.MeanPowerAfter += cells[i].after
			}
			n := float64(len(suite))
			row.MeanSaving /= n
			row.MeanBeta /= n
			row.MeanBetaSpread /= n
			row.MeanPowerAfter /= n
			out = append(out, row)
		}
	}
	return out, nil
}

// DefaultBackends returns the shipped architecture set the CLI frontier
// runs when no explicit backend list is given: the paper's global CCFL
// anchor, a 4×4 LED local-dimming array, and the OLED model.
func DefaultBackends() ([]backlight.Backend, error) {
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		return nil, err
	}
	return []backlight.Backend{backlight.DefaultCCFL(), led, backlight.DefaultOLED()}, nil
}

// RenderBackendTable formats the frontier as a report table.
func RenderBackendTable(rows []BackendRow) *report.Table {
	tb := report.NewTable("Backend", "Budget %", "Saving %", "Mean beta", "Beta spread", "Power W")
	for _, r := range rows {
		tb.MustAddRow(r.Backend, report.F(r.Budget, 1), report.F(r.MeanSaving, 2),
			report.F(r.MeanBeta, 4), report.F(r.MeanBetaSpread, 4), report.F(r.MeanPowerAfter, 4))
	}
	return tb
}
