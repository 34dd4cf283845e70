// The frame flight recorder: a fixed-size lock-free ring of per-frame
// records fed by the video pipeline, so when a frame blows its latency
// budget there is a record of *which* frame and what the governor did
// to it — not just a histogram bucket increment. The recorder follows
// the span sink's enable discipline: a process-wide atomic pointer,
// nil when disabled, so the per-frame cost is one predictable atomic
// load when off and one small allocation plus two atomic ops when on.
package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
)

// FrameRecord is one processed video frame's flight entry.
type FrameRecord struct {
	// Frame is the clip-global frame index.
	Frame int `json:"frame"`
	// TargetBeta is the frame's own HEBS optimum; Beta the applied
	// (slew-limited, re-quantized) backlight factor.
	TargetBeta float64 `json:"target_beta"`
	Beta       float64 `json:"beta"`
	// Range is the dynamic range the frame was transformed at.
	Range int `json:"range"`
	// HistHash is an FNV-1a hash of the frame's 256-bin histogram
	// (0 when the pipeline did not extract one on this path).
	HistHash uint64 `json:"hist_hash,omitempty"`
	// PlanCached reports whether the frame's Plan came from the plan
	// cache rather than a fresh equalize/plc solve. Fused classic
	// frames, which reuse an earlier frame's plan, set it too; a zoned
	// frame sets it when every zone reused its plan.
	PlanCached bool `json:"plan_cached,omitempty"`
	// Governor decisions, mirroring the per-frame counters.
	RangeReused bool `json:"range_reused,omitempty"`
	CutSnap     bool `json:"cut_snap,omitempty"`
	SlewLimited bool `json:"slew_limited,omitempty"`
	// FusedApply reports a fused delta frame: its pixels were certified
	// identical to a measured frame at the same applied range, so it
	// copied that frame's measurements and made no engine call (its
	// PlanCached is set).
	FusedApply bool `json:"fused_apply,omitempty"`
	// TileChangeRatio is changed/total tiles of the delta analysis for
	// this frame (0 when delta analysis is off or nothing changed).
	TileChangeRatio float64 `json:"tile_change_ratio,omitempty"`
	// Zoned-walk telemetry: zone count of the backlight backend (0 on
	// the classic global walk), max−min of the applied per-zone β
	// field, and the spatial-smoothing sweeps the frame needed.
	Zones          int     `json:"zones,omitempty"`
	ZoneBetaSpread float64 `json:"zone_beta_spread,omitempty"`
	SmoothIters    int     `json:"smooth_iters,omitempty"`
	// Workers is the scheduler's resolved worker bound (1 = inline).
	Workers int `json:"workers"`
	// Seconds is the wall time spent on this frame's own work —
	// analysis, range search, Apply and measure — the same quantity
	// video.frame.seconds observes.
	Seconds float64 `json:"seconds"`
}

// FlightRecorder retains the last `size` frame records in a ring.
// Record is lock-free (an atomic slot reservation plus an atomic
// pointer store), so pipeline workers feed it without contention;
// Snapshot reads a best-effort consistent copy.
type FlightRecorder struct {
	slots []atomic.Pointer[FrameRecord]
	idx   atomic.Uint64
}

// DefaultFlightSize is the ring capacity the CLI wiring uses.
const DefaultFlightSize = 256

// NewFlightRecorder returns a recorder retaining the last `size`
// records (size < 1 is clamped to 1).
func NewFlightRecorder(size int) *FlightRecorder {
	if size < 1 {
		size = 1
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[FrameRecord], size)}
}

// Record appends one frame record, evicting the oldest when full.
//
//hebs:noalloc
//hebs:noalloc-allow the ring's one deliberate per-record allocation: storing &rec keeps slot reads tear-free
func (f *FlightRecorder) Record(rec FrameRecord) {
	i := f.idx.Add(1) - 1
	f.slots[i%uint64(len(f.slots))].Store(&rec)
}

// Snapshot returns the retained records, oldest first. Under
// concurrent Record calls a slot mid-overwrite yields either its old
// or its new record (never a torn one).
func (f *FlightRecorder) Snapshot() []FrameRecord {
	total := f.idx.Load()
	size := uint64(len(f.slots))
	n := total
	start := uint64(0)
	if total > size {
		n = size
		start = total % size // oldest retained record's slot
	}
	out := make([]FrameRecord, 0, n)
	for k := uint64(0); k < n; k++ {
		if rec := f.slots[(start+k)%size].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	return out
}

// WriteJSON dumps the retained records (oldest first) as an indented
// JSON array — the /debug/frames and -flight-out format.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	recs := f.Snapshot()
	if recs == nil {
		recs = []FrameRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// flight is the process-wide recorder, nil when disabled.
var flight atomic.Pointer[FlightRecorder]

// SetFlightRecorder installs (or, with nil, disables) the process-wide
// flight recorder and returns the previous one.
func SetFlightRecorder(f *FlightRecorder) *FlightRecorder {
	return flight.Swap(f)
}

// Flight returns the installed flight recorder, or nil when recording
// is disabled. Callers guard their Record with this nil check so a
// disabled recorder costs one atomic load and zero allocations.
func Flight() *FlightRecorder { return flight.Load() }
