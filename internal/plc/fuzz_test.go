package plc

import (
	"math"
	"testing"

	"hebs/internal/transform"
)

// FuzzCoarsen drives the PLC dynamic program with random small curves
// and segment budgets. Every solve must produce a structurally valid
// endpoint set (Eq. 8) whose reported MSE matches a direct evaluation,
// and — the instances being small — must equal the exhaustive optimum
// over all endpoint subsets (Eq. 9) and the k-outer reference loop bit
// for bit.
func FuzzCoarsen(f *testing.F) {
	f.Add(uint8(10), uint8(3), []byte{0, 50, 50, 90, 120, 121, 122, 200, 220, 255})
	f.Add(uint8(2), uint8(0), []byte{7})
	f.Add(uint8(14), uint8(13), []byte{})
	f.Fuzz(func(t *testing.T, n8, m8 uint8, yBytes []byte) {
		n := 2 + int(n8)%15 // [2,16]: exhaustive check stays cheap
		m := 1 + int(m8)%(n-1)
		pts := make([]transform.Point, n)
		for i := range pts {
			y := 0.0
			if len(yBytes) > 0 {
				y = float64(yBytes[i%len(yBytes)])
			}
			pts[i] = transform.Point{X: i, Y: y}
		}
		res, err := Coarsen(pts, m)
		if err != nil {
			t.Fatalf("Coarsen(n=%d, m=%d): %v", n, m, err)
		}
		if len(res.Indices) != m+1 || res.Indices[0] != 0 || res.Indices[m] != n-1 {
			t.Fatalf("bad endpoint set for n=%d m=%d: %v", n, m, res.Indices)
		}
		for i := 1; i < len(res.Indices); i++ {
			if res.Indices[i] <= res.Indices[i-1] {
				t.Fatalf("indices not increasing: %v", res.Indices)
			}
		}
		if math.IsNaN(res.MSE) || math.IsInf(res.MSE, 0) || res.MSE < 0 {
			t.Fatalf("bad MSE %v", res.MSE)
		}
		direct, err := CurveMSE(pts, res.Indices)
		if err != nil {
			t.Fatalf("CurveMSE: %v", err)
		}
		if math.Abs(direct-res.MSE) > mseTolerance(direct) {
			t.Fatalf("chord-table MSE %v != direct %v", res.MSE, direct)
		}
		if d := sameAsReference(pts, m, res); d != "" {
			t.Fatalf("n=%d m=%d: %s", n, m, d)
		}
		if best := exhaustiveMSE(pts, m); math.Abs(res.MSE-best) > mseTolerance(best) {
			t.Fatalf("DP MSE %v != exhaustive optimum %v (n=%d, m=%d)", res.MSE, best, n, m)
		}
	})
}
