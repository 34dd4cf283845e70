// Pool observability: how often ForEach actually fans out versus runs
// inline, and how much work flows through it — the numbers that tell
// whether a -workers setting is doing anything on this machine.
package parallel

import "hebs/internal/obs"

var (
	// ForEach accounting: inline runs (one worker, no goroutines) vs
	// fan-outs, the goroutines spawned by the latter, and total jobs.
	mInlineRuns = obs.NewCounter("parallel.inline_runs_total")
	mFanouts    = obs.NewCounter("parallel.fanouts_total")
	mWorkers    = obs.NewCounter("parallel.workers_spawned_total")
	mJobs       = obs.NewCounter("parallel.jobs_total")
)
