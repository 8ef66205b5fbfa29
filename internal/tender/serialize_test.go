package tender

import (
	"encoding/json"
	"strings"
	"testing"

	"tender/internal/tensor"
)

func calFixture(t *testing.T) *Calibration {
	t.Helper()
	x := outlierActivation(61, 128, 48, []int{3, 20, 40}, 50)
	cfg := DefaultConfig(8)
	cfg.RowChunk = 64
	return Calibrate([]*tensor.Matrix{x}, cfg)
}

func TestCalibrationJSONRoundTrip(t *testing.T) {
	cal := calFixture(t)
	blob, err := json.Marshal(cal)
	if err != nil {
		t.Fatal(err)
	}
	var back Calibration
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cols != cal.Cols || len(back.Chunks) != len(cal.Chunks) {
		t.Fatal("shape metadata lost")
	}
	// The restored calibration must quantize identically.
	x := outlierActivation(62, 96, 48, []int{3, 20, 40}, 50)
	a := cal.FakeQuantActivation(x)
	b := back.FakeQuantActivation(x)
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("restored calibration quantizes differently")
	}
	// Group maps must be rebuilt exactly.
	for i := range cal.Chunks {
		for c := range cal.Chunks[i].Group {
			if cal.Chunks[i].Group[c] != back.Chunks[i].Group[c] {
				t.Fatalf("chunk %d channel %d group mismatch", i, c)
			}
		}
	}
	// Every calibration Calibrate writes passes the scale validation.
	for alpha := 2; alpha <= 5; alpha++ {
		for _, bits := range []int{2, 4, 8} {
			for _, groups := range []int{1, 3, 8} {
				cfg := Config{Bits: bits, Groups: groups, Alpha: alpha, RowChunk: 64}
				blob, err := json.Marshal(Calibrate([]*tensor.Matrix{x}, cfg))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(blob, new(Calibration)); err != nil {
					t.Fatalf("%+v: Calibrate output does not load: %v", cfg, err)
				}
			}
		}
	}
}

func TestCalibrationJSONImplicitGEMMWorks(t *testing.T) {
	cal := calFixture(t)
	blob, _ := json.Marshal(cal)
	var back Calibration
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(63)
	x := outlierActivation(64, 64, 48, []int{3, 20, 40}, 50)
	w := tensor.RandNormal(rng, 48, 16, 0.5)
	qw := QuantizeWeights(w, 8)
	a := cal.MatMulImplicit(x, qw, qw.Dequantize())
	b := back.MatMulImplicit(x, qw, qw.Dequantize())
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("restored calibration computes a different GEMM")
	}
}

func TestCalibrationJSONValidation(t *testing.T) {
	cal := calFixture(t)
	blob, _ := json.Marshal(cal)
	corrupt := func(f func(*calibrationJSON)) string {
		var c calibrationJSON
		if err := json.Unmarshal(blob, &c); err != nil {
			t.Fatal(err)
		}
		f(&c)
		out, _ := json.Marshal(c)
		return string(out)
	}
	cases := map[string]string{
		"bad bits":           corrupt(func(c *calibrationJSON) { c.Bits = 99 }),
		"no chunks":          corrupt(func(c *calibrationJSON) { c.Chunks = nil }),
		"short bias":         corrupt(func(c *calibrationJSON) { c.Chunks[0].Bias = c.Chunks[0].Bias[:3] }),
		"dup channel":        corrupt(func(c *calibrationJSON) { c.Chunks[0].Order[1] = c.Chunks[0].Order[0] }),
		"bad counts":         corrupt(func(c *calibrationJSON) { c.Chunks[0].GroupCounts[0]++ }),
		"bad scales":         corrupt(func(c *calibrationJSON) { c.Chunks[0].Scales[1] = c.Chunks[0].Scales[0] * 2 }),
		"group mismatch":     corrupt(func(c *calibrationJSON) { c.Groups = 3 }),
		"negative row chunk": corrupt(func(c *calibrationJSON) { c.RowChunk = -1 }),
		// A negative last scale is still strictly descending, but the
		// implicit GEMM dequantizes with it alone.
		"negative scale": corrupt(func(c *calibrationJSON) { c.Chunks[0].Scales[len(c.Chunks[0].Scales)-1] = -1 }),
		// Still descending, but a populated group no longer sits α above
		// the next one, so implicit and explicit requantization disagree.
		"scales not alpha apart": corrupt(func(c *calibrationJSON) {
			ch := &c.Chunks[0]
			g := 0
			for ch.GroupCounts[g] == 0 {
				g++
			}
			ch.Scales[g] = 1.5 * ch.Scales[g+1]
		}),
	}
	for name, payload := range cases {
		var back Calibration
		if err := json.Unmarshal([]byte(payload), &back); err == nil {
			t.Fatalf("%s: corruption not detected", name)
		} else if !strings.Contains(err.Error(), "tender:") {
			// All validation errors carry the package prefix.
			t.Fatalf("%s: unexpected error %v", name, err)
		}
	}
}
