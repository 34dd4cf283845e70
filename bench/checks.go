package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"

	"hebs/internal/core"
	"hebs/internal/transform"
	"hebs/internal/video"
)

// record is what the benchmark keeps of one op's output: the
// transformed still and its stats, or a clip's per-frame results.
type record struct {
	stats  core.Stats
	pix    []byte
	frames []video.FrameResult
	// flicker is the clip's mean |Δβ| between consecutive frames.
	flicker float64
}

// toRecord copies what the checks and the digest need out of an
// outcome and returns the program's pooled buffers.
func toRecord(out outcome) record {
	switch {
	case out.still != nil:
		rec := record{stats: out.still.Stats(), pix: bytes.Clone(out.still.Transformed.Pix)}
		out.still.Release()
		return rec
	case out.clip != nil:
		return record{frames: out.clip.Frames, flicker: out.clip.MeanAbsDeltaBeta}
	}
	return record{}
}

// quantStep is one drive level of β: mapping β back to a range floors
// it, so an applied step may exceed MaxStep by this much.
const quantStep = 1.0 / float64(transform.Levels-1)

// checkRecord returns every way rec, an op's output at distortion
// budget budget under policy pol (nil for stills), breaks the program's
// contract. An empty result means the op passed.
func checkRecord(rec record, budget float64, pol *video.Policy) []string {
	var bad []string
	if pol == nil {
		st := rec.stats
		bad = append(bad, checkOperatingPoint(0, st.Beta, st.Beta, st.Range)...)
		if st.PredictedDistortion > budget {
			bad = append(bad, fmt.Sprintf("predicted distortion %.4f%% over budget %.4g%%", st.PredictedDistortion, budget))
		}
		return bad
	}
	if len(rec.frames) == 0 {
		return []string{"clip returned no frames"}
	}
	for i, f := range rec.frames {
		bad = append(bad, checkOperatingPoint(i, f.TargetBeta, f.Beta, f.Range)...)
		if i == 0 || pol.MaxStep <= 0 {
			continue
		}
		prev := rec.frames[i-1].Beta
		cut := pol.CutThreshold > 0 && math.Abs(f.TargetBeta-prev) > pol.CutThreshold
		if !cut && prev-f.Beta > pol.MaxStep+quantStep+1e-9 {
			bad = append(bad, fmt.Sprintf("frame %d: dimmed by %.4f, over MaxStep %.4g without a cut", i, prev-f.Beta, pol.MaxStep))
		}
	}
	return bad
}

// checkOperatingPoint checks one frame's β and range: 0 < β ≤ 1,
// 2 ≤ R ≤ 255, and β never below the frame's own target.
func checkOperatingPoint(frame int, target, beta float64, r int) []string {
	var bad []string
	if !(beta > 0 && beta <= 1) {
		bad = append(bad, fmt.Sprintf("frame %d: β %v outside (0,1]", frame, beta))
	}
	if r < 2 || r > transform.Levels-1 {
		bad = append(bad, fmt.Sprintf("frame %d: range %d outside [2,255]", frame, r))
	}
	if beta < target-1e-9 {
		bad = append(bad, fmt.Sprintf("frame %d: β %v below its target %v", frame, beta, target))
	}
	return bad
}

// sameRecord compares an op's record with its reference recomputation,
// byte for byte.
func sameRecord(got, want record) error {
	if !bytes.Equal(got.pix, want.pix) {
		return fmt.Errorf("oracle: transformed pixels differ")
	}
	if got.stats != want.stats {
		return fmt.Errorf("oracle: stats differ: %+v vs %+v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.frames, want.frames) {
		return fmt.Errorf("oracle: frame results differ")
	}
	return nil
}

// digestRecord feeds every per-frame output of rec into h.
func digestRecord(h hash.Hash64, rec record) {
	// Writes to a hash never fail.
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	f := math.Float64bits
	_, _ = h.Write(rec.pix)
	st := rec.stats
	for _, v := range []float64{st.Beta, st.PredictedDistortion, st.AchievedDistortion, st.PLCError,
		st.PowerBefore, st.PowerAfter, st.PowerSavingPercent, st.RealizationError} {
		put(f(v))
	}
	put(uint64(st.Range))
	put(uint64(st.Segments))
	for _, fr := range rec.frames {
		for _, v := range []float64{fr.TargetBeta, fr.Beta, fr.SavingPercent, fr.Distortion, fr.ZoneBetaSpread} {
			put(f(v))
		}
		put(uint64(fr.Range))
		put(uint64(fr.Zones))
	}
}

// tally counts ops attempted and ops that failed any check, keeping
// the first few failure messages.
type tally struct {
	attempted, failed int
	msgs              []string
}

const maxFailureMsgs = 10

// add records one op's problems; an op with any problem counts once.
func (t *tally) add(label string, problems []string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		if len(t.msgs) < maxFailureMsgs {
			t.msgs = append(t.msgs, label+": "+p)
		}
	}
}
