package main

import (
	"context"
	"fmt"
	"image"
	"math"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
	"hebs/internal/rng"
	"hebs/internal/sipi"
	"hebs/internal/video"
)

// clipFrames is the length of one video op: about half a second of
// 30 fps video.
const clipFrames = 16

// warmupOps is the number of untimed ops each process runs after
// building its engine and before the timed phase.
const warmupOps = 4

// Input streams of a seed: the timed ops and the warm-up ops are drawn
// from different streams, so warm-up never pre-solves a timed input.
const (
	streamTimed  = 0
	streamWarmup = 1
)

// clipBudget is the distortion budget D_max (percent) of every video
// workload.
const clipBudget = 10

// photoBudgets are the budgets the photo workload cycles through.
var photoBudgets = [...]float64{5, 10, 20}

// op is one unit of work: a still with its budget, or a clip.
type op struct {
	still  *gray.Image
	budget float64
	clip   *video.Sequence
	// zone is a backlight zone whose pixels change on every frame of
	// the clip (talking-zoned only); the range-search probe runs on it.
	zone image.Rectangle
}

// frameList returns the op's frames in display order.
func (o *op) frameList() []*gray.Image {
	if o.clip != nil {
		return o.clip.Frames
	}
	return []*gray.Image{o.still}
}

// workload is one seeded input mix and the program configuration it
// runs under.
type workload struct {
	name string
	why  string
	// roundOps is the number of timed ops in one round. Every round of
	// a seed replays the same inputs in a fresh process.
	roundOps int
	// generate builds n ops of the given stream from seed.
	generate func(seed uint64, stream, n int) ([]op, error)
	// policy is the video policy of a clip workload (its Engine is set
	// by setup); nil for stills.
	policy func() (*video.Policy, error)
}

var workloads = []*workload{
	{
		name:     "photo",
		why:      "seeded 256x256 stills through the exact range search; no plan-cache hit, no temporal or zoned layer",
		roundOps: 50,
		generate: photoOps,
	},
	{
		name:     "scroll",
		why:      "320x240 viewport scrolling a page of alternating bright and dark sections; every tile changes, the governor slews",
		roundOps: 20,
		generate: scrollOps,
		policy: func() (*video.Policy, error) {
			return &video.Policy{
				MaxStep:        0.04,
				ReuseThreshold: 4,
				DeltaAnalysis:  true,
				Workers:        1,
				Options:        core.Options{MaxDistortionPercent: clipBudget, ExactSearch: true},
			}, nil
		},
	},
	{
		name:     "talking-zoned",
		why:      "128x128 portrait on a 4x4 LED array with a mouth patch that never repeats; 2 dirty zones per frame",
		roundOps: 20,
		generate: talkingOps,
		policy: func() (*video.Policy, error) {
			led, err := backlight.Parse("led:4x4")
			if err != nil {
				return nil, err
			}
			return &video.Policy{
				Backend:       led,
				MaxStep:       0.04,
				DeltaAnalysis: true,
				Workers:       1,
				Options:       core.Options{MaxDistortionPercent: clipBudget, ExactSearch: true},
			}, nil
		},
	},
	{
		name:     "slides",
		why:      "a recurring deck of 6 stills held 32-96 frames each on the pipelined scheduler; fast path and plan-cache hits",
		roundOps: 600,
		generate: slideOps,
		policy: func() (*video.Policy, error) {
			return &video.Policy{
				MaxStep:        0.04,
				CutThreshold:   0.1,
				ReuseThreshold: 4,
				DeltaAnalysis:  true,
				Workers:        2,
				Options:        core.Options{MaxDistortionPercent: clipBudget, ExactSearch: true},
			}, nil
		},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// system is the long-lived program state one process drives: one
// engine shared by every op, as a long-running app would hold it.
type system struct {
	eng *core.Engine
	pol *video.Policy // nil for the still workload
}

// setup builds the workload's system: the timed part of set-up.
func (w *workload) setup() (*system, error) {
	s := &system{eng: core.NewEngine(core.EngineOptions{Workers: 1})}
	if w.policy != nil {
		pol, err := w.policy()
		if err != nil {
			return nil, err
		}
		pol.Engine = s.eng
		s.pol = pol
	}
	return s, nil
}

// outcome is the raw return of one op, before it is recorded.
type outcome struct {
	still *core.Result
	clip  *video.Result
}

// stillOptions is the per-op configuration of the still workload.
func stillOptions(budget float64) core.Options {
	return core.Options{MaxDistortionPercent: budget, ExactSearch: true}
}

// call runs one op through the program. parent, when non-nil, becomes
// the parent of the program's own spans.
func (s *system) call(ctx context.Context, o *op, parent *obs.Span) (outcome, error) {
	if s.pol == nil {
		opts := stillOptions(o.budget)
		opts.Trace = parent
		res, err := s.eng.Process(ctx, o.still, opts)
		return outcome{still: res}, err
	}
	pol := *s.pol
	pol.Options.Trace = parent
	res, err := video.ProcessContext(ctx, o.clip, pol)
	return outcome{clip: res}, err
}

// reference recomputes an op through the program's reference path: a
// fresh engine for stills, and for clips the serial walk with delta
// analysis off and no shared engine.
func (s *system) reference(ctx context.Context, o *op) (record, error) {
	if s.pol == nil {
		res, err := core.ProcessContext(ctx, o.still, stillOptions(o.budget))
		if err != nil {
			return record{}, err
		}
		return toRecord(outcome{still: res}), nil
	}
	pol := *s.pol
	pol.Engine = nil
	pol.DeltaAnalysis = false
	pol.Workers = 1
	res, err := video.ProcessContext(ctx, o.clip, pol)
	if err != nil {
		return record{}, err
	}
	return toRecord(outcome{clip: res}), nil
}

// budget returns the distortion budget an op runs under.
func (s *system) budget(o *op) float64 {
	if s.pol == nil {
		return o.budget
	}
	return s.pol.Options.MaxDistortionPercent
}

// mix folds values into one well-spread 64-bit seed.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// Per-workload tags keep the streams of different workloads apart.
const (
	tagPhoto = iota + 1
	tagScroll
	tagTalking
	tagSlides
)

// families is the number of sipi parametric families scene draws from.
const families = 5

// scene draws one image of sipi parametric family fam (0..4: portrait,
// landscape, blobs, texture, gradient) with seeded parameters centred
// on the brightness level in [0,1].
func scene(fam, w, h int, level float64, r *rng.Source) (*gray.Image, error) {
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	clamp := func(v float64) float64 { return math.Min(1, math.Max(0, v)) }
	lo := clamp(level - u(0.2, 0.4))
	hi := clamp(level + u(0.2, 0.4))
	switch fam {
	case 0:
		return sipi.Portrait(w, h, sipi.PortraitSpec{
			Mean: level, Spread: u(0.3, 0.8), Grain: u(0.02, 0.1), Seed: r.Uint64()})
	case 1:
		return sipi.Landscape(w, h, sipi.LandscapeSpec{
			SkyLevel: hi, GroundLevel: lo, Octaves: 3 + r.Intn(5), Seed: r.Uint64()})
	case 2:
		return sipi.Blobs(w, h, sipi.BlobsSpec{
			Count: 3 + r.Intn(10), Lo: lo, Hi: hi, Grain: u(0.01, 0.08), Seed: r.Uint64()})
	case 3:
		return sipi.Texture(w, h, sipi.TextureSpec{
			Octaves: 2 + r.Intn(6), Lo: lo, Hi: hi, Seed: r.Uint64()})
	default:
		return sipi.Gradient(w, h, lo, hi, u(0, math.Pi), u(0.01, 0.05), r.Uint64())
	}
}

// photoOps draws n stills. Families cycle with period 5 and budgets
// with period 3, so every 15 ops hold the same family × budget mix.
func photoOps(seed uint64, stream, n int) ([]op, error) {
	ops := make([]op, n)
	for i := range ops {
		r := rng.New(mix(seed, tagPhoto, uint64(stream), uint64(i)))
		img, err := scene(i%families, 256, 256, 0.25+0.5*r.Float64(), r)
		if err != nil {
			return nil, err
		}
		ops[i] = op{still: img, budget: photoBudgets[i%len(photoBudgets)]}
	}
	return ops, nil
}

// clipsOf cuts frames into consecutive clips of clipFrames.
func clipsOf(frames []*gray.Image) ([]op, error) {
	ops := make([]op, len(frames)/clipFrames)
	for i := range ops {
		seq, err := video.NewSequence(frames[i*clipFrames : (i+1)*clipFrames])
		if err != nil {
			return nil, err
		}
		ops[i] = op{clip: seq}
	}
	return ops, nil
}

// Scroll geometry: the viewport and the section heights of the page.
const (
	scrollW, scrollH     = 320, 240
	sectionMin, sectionN = 120, 121 // heights 120..240
)

// scrollOps builds n clips of a viewport scrolling down a seeded page
// of parametric sections that alternate bright and dark. Clips cycle
// through three motions with seeded speeds: a slow scroll at 2-4 px a
// frame; a slow scroll broken after 4 frames by a 3-frame fling at
// 32-64 px a frame; and a pause of 4-8 frames before the slow scroll
// resumes. A slow scroll changes the histogram too little to break the
// policy's range reuse, so the flings are what move the target β within
// a clip and make the governor slew. Tying the motions to clips gives
// every seed the same mix of light and heavy clips.
func scrollOps(seed uint64, stream, n int) ([]op, error) {
	r := rng.New(mix(seed, tagScroll, uint64(stream)))
	offsets := make([]int, n*clipFrames)
	y := 0
	for c := 0; c < n; c++ {
		slow, fling, pause := 2+r.Intn(3), 32+r.Intn(33), 4+r.Intn(5)
		for k := 0; k < clipFrames; k++ {
			switch {
			case c%3 == 1 && k >= 4 && k < 7:
				y += fling
			case c%3 == 2 && k < pause:
			default:
				y += slow
			}
			offsets[c*clipFrames+k] = y
		}
	}
	page := gray.New(scrollW, y+scrollH)
	for top, sec := 0, 0; top < page.H; sec++ {
		// Bright sections are smooth (portrait, landscape) and need a wide
		// range; dark ones are textured (texture, gradient with grain) and
		// dim far, so the target β drops as a dark section fills the view.
		fam, level := sec/2%2, 0.65+0.2*r.Float64()
		if sec%2 == 1 {
			fam, level = 3+sec/2%2, 0.2+0.15*r.Float64()
		}
		h := min(sectionMin+r.Intn(sectionN), page.H-top)
		img, err := scene(fam, scrollW, h, level, r)
		if err != nil {
			return nil, err
		}
		copy(page.Pix[top*scrollW:], img.Pix)
		top += h
	}
	// Sensor noise of ±1 level: no 64×64 tile of a moved frame stays
	// byte-identical, so every tile re-bins while the page moves.
	for i, v := range page.Pix {
		page.Pix[i] = uint8(min(255, max(0, int(v)+r.Intn(3)-1)))
	}
	frames := make([]*gray.Image, len(offsets))
	for i, off := range offsets {
		f, err := page.SubImage(image.Rect(0, off, scrollW, off+scrollH))
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	return clipsOf(frames)
}

// Talking-head geometry: the frame, the LED grid and the mouth patch.
const (
	talkSize       = 128
	talkGrid       = 4
	mouthW, mouthH = 20, 12
)

// talkingOps builds n clips of a seeded portrait whose mouth patch gets
// fresh random pixels every frame. The patch always straddles the
// boundary between two zone columns of the 4×4 grid inside one zone
// row, so 2 zones are dirty on every frame and their histograms never
// repeat.
func talkingOps(seed uint64, stream, n int) ([]op, error) {
	r := rng.New(mix(seed, tagTalking, uint64(stream)))
	base, err := sipi.Portrait(talkSize, talkSize, sipi.PortraitSpec{
		Mean: 0.45 + 0.1*r.Float64(), Spread: 0.55 + 0.1*r.Float64(),
		Grain: 0.04 + 0.02*r.Float64(), Seed: r.Uint64()})
	if err != nil {
		return nil, err
	}
	x0, y0 := 48+r.Intn(13), 68+r.Intn(13)
	zone := talkSize / talkGrid
	dirty := image.Rect(x0/zone*zone, y0/zone*zone, (x0/zone+1)*zone, (y0/zone+1)*zone)
	frames := make([]*gray.Image, n*clipFrames)
	for i := range frames {
		f := base.Clone()
		for y := y0; y < y0+mouthH; y++ {
			for x := x0; x < x0+mouthW; x++ {
				f.Pix[y*talkSize+x] = uint8(80 + r.Intn(100))
			}
		}
		frames[i] = f
	}
	ops, err := clipsOf(frames)
	for i := range ops {
		ops[i].zone = dirty
	}
	return ops, err
}

// Slide deck geometry.
const (
	slideSize, deckSize = 128, 6
	holdMin, holdStep   = 32, 13 // holds of 32..96 frames
)

// slideOps builds n clips of a seeded deck shown in seeded order: the
// next slide always differs, slides recur, and the k-th slide shown is
// held for 32-96 frames, its length drawn from the (k mod 5)-th of five
// 13-frame bands so that every seed shows the same mix of short and
// long holds.
func slideOps(seed uint64, stream, n int) ([]op, error) {
	r := rng.New(mix(seed, tagSlides, uint64(stream)))
	deck := make([]*gray.Image, deckSize)
	for k := range deck {
		img, err := scene(k%families, slideSize, slideSize, 0.2+0.6*r.Float64(), r)
		if err != nil {
			return nil, err
		}
		deck[k] = img
	}
	frames := make([]*gray.Image, 0, n*clipFrames+holdMin+5*holdStep)
	cur := -1
	for shown := 0; len(frames) < n*clipFrames; shown++ {
		next := r.Intn(deckSize)
		if next == cur {
			next = (next + 1) % deckSize
		}
		cur = next
		for k, hold := 0, holdMin+holdStep*(shown%5)+r.Intn(holdStep); k < hold; k++ {
			frames = append(frames, deck[cur])
		}
	}
	return clipsOf(frames[:n*clipFrames])
}
