package hebs

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/experiments"
	"hebs/internal/gray"
	"hebs/internal/sipi"
	"hebs/internal/video"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/outputs.digest from this build's outputs")

const digestFile = "testdata/outputs.digest"

// digest hashes the exported numbers, strings and flags of a value in
// field order, every float64 by its bits.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(v any) { d.value(reflect.ValueOf(v)) }

func (d *digest) value(v reflect.Value) {
	var buf [8]byte
	switch v.Kind() {
	case reflect.Float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
		d.h.Write(buf[:])
	case reflect.Int:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
		d.h.Write(buf[:])
	case reflect.Bool:
		if v.Bool() {
			buf[0] = 1
		}
		d.h.Write(buf[:1])
	case reflect.String:
		d.h.Write([]byte(v.String()))
		d.h.Write([]byte{0})
	case reflect.Slice:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Len()))
		d.h.Write(buf[:])
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				d.value(v.Field(i))
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			d.value(v.Elem())
		}
	default:
		panic(fmt.Sprintf("digest: unhandled kind %s", v.Kind()))
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// pinClip builds the hebsvideo clip of the given kind, as the CI
// equivalence jobs run it.
func pinClip(t *testing.T, kind string, frames, size int) *video.Sequence {
	t.Helper()
	gen := func(name string, w int) *gray.Image {
		img, err := sipi.Generate(name, w, size)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	var seq *video.Sequence
	var err error
	switch kind {
	case "pan":
		seq, err = video.Pan(gen("autumn", 2*size), size, size, frames, size/8+1)
	case "fade":
		seq, err = video.Fade(gen("splash", size), gen("sail", size), frames)
	case "cut":
		hold := func(img *gray.Image, n int) *video.Sequence {
			held := make([]*gray.Image, n)
			for i := range held {
				held[i] = img
			}
			s, err := video.NewSequence(held)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		half := max(frames/2, 1)
		seq, err = video.Cut(hold(gen("splash", size), half), hold(gen("sail", size), frames-half))
	case "mixed":
		n := frames/3 + 2
		if seq, err = video.Cut(pinClip(t, "pan", n, size), pinClip(t, "fade", n, size)); err == nil {
			seq, err = video.Cut(seq, pinClip(t, "cut", n, size))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestOutputDigests pins every number the paper reproduction and the
// CI clip runs report: Table 1, the Fig. 7 curve, the metric ablation
// (all four metrics), the backend frontier, and video.Process over the
// four CI clips on each backend at 64². A changed digest means an
// output moved; a change that means to move one regenerates the file
// with
//
//	go test -run TestOutputDigests -update .
//
// and says which digest changed and why. Only amd64 is pinned: other
// architectures may fuse multiply-adds, which moves last bits.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	cfg := experiments.Config{}
	var names []string
	got := map[string]string{}
	pin := func(name string, vs ...any) {
		d := newDigest()
		for _, v := range vs {
			d.add(v)
		}
		names = append(names, name)
		got[name] = d.sum()
	}

	t1, err := experiments.Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pin("table1", t1)

	curve, err := experiments.Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fits []float64
	for r := 2; r <= 255; r++ {
		fits = append(fits, curve.Avg.Eval(float64(r)), curve.Worst.Eval(float64(r)))
	}
	pin("fig7", curve, fits)

	metrics, err := experiments.AblationMetrics(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	pin("ablation_metrics", metrics)

	backends, err := experiments.DefaultBackends()
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := experiments.BackendFrontier(cfg, backends, []float64{2, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	pin("backend_frontier", frontier)

	for _, clip := range []string{"pan", "fade", "cut", "mixed"} {
		for _, spec := range []string{"", "ccfl", "led:4x4", "oled"} {
			pol := video.Policy{
				MaxStep: 0.04,
				Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
			}
			name := "video/" + clip + "/global"
			if spec != "" {
				if pol.Backend, err = backlight.Parse(spec); err != nil {
					t.Fatal(err)
				}
				name = "video/" + clip + "/" + spec
			}
			res, err := video.Process(pinClip(t, clip, 10, 64), pol)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pin(name, res)
		}
	}

	path := filepath.FromSlash(digestFile)
	if *updateDigests {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: digest %s, want %s", n, got[n], want[n])
		}
	}
	if len(want) != len(names) {
		t.Errorf("%s pins %d outputs, this test computes %d", digestFile, len(want), len(names))
	}
}
