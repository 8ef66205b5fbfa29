package tender

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"tender/internal/quant"
	"tender/internal/tensor"
)

// FuzzCalibrationJSON checks the calibration codec on arbitrary payloads:
// whatever UnmarshalJSON accepts re-marshals and reloads to a DeepEqual
// calibration, and every accepted non-clustered calibration of at most 64
// columns runs MatMulImplicit equal to MatMulExplicit (within 1e-9
// relative) on a fixed input — so a loaded file cannot break implicit
// requantization. Calibrations whose worst-case accumulator exceeds
// AccumulatorBits are skipped for the GEMM check: MatMulImplicit refuses
// them by design.
func FuzzCalibrationJSON(f *testing.F) {
	x := outlierActivation(71, 40, 24, []int{2, 9, 17}, 40)
	for _, cfg := range []Config{
		DefaultConfig(8),
		{Bits: 8, Groups: 8, Alpha: 2, RowChunk: 16},
		{Bits: 4, Groups: 3, Alpha: 3},
		{Bits: 2, Groups: 1, Alpha: 5, DisableBias: true},
		{Bits: 8, Groups: 4, Alpha: 2, UseClustering: true},
	} {
		blob, err := json.Marshal(Calibrate([]*tensor.Matrix{x}, cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"bits":8,"groups":2,"alpha":2,"row_chunk":0,"cols":2,"chunks":[{"bias":[0,0],"order":[1,0],"group_counts":[1,1],"scales":[0.5,-1]}]}`))
	f.Add([]byte(`{"bits":8,"groups":2,"alpha":2,"row_chunk":0,"cols":2,"chunks":[{"bias":[0,0],"order":[1,0],"group_counts":[1,1],"scales":[0.5,0.25]}]}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var cal Calibration
		if err := json.Unmarshal(data, &cal); err != nil {
			return
		}
		blob, err := json.Marshal(&cal)
		if err != nil {
			t.Fatalf("accepted calibration does not marshal: %v", err)
		}
		var back Calibration
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("re-marshalled calibration does not load: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(cal, back) {
			t.Fatalf("round trip changed the calibration:\n%+v\n%+v", cal, back)
		}

		if cal.Cfg.UseClustering || cal.Cols > 64 {
			return
		}
		qmax := float64(quant.QMax(cal.Cfg.Bits))
		worst := qmax * qmax * float64(cal.Cols) * math.Pow(float64(cal.Cfg.Alpha), float64(cal.Cfg.Groups-1))
		if worst > math.MaxInt32 {
			return
		}
		rng := tensor.NewRNG(72)
		in := tensor.RandNormal(rng, 12, cal.Cols, 1)
		for c := 0; c < cal.Cols; c += 5 {
			for r := 0; r < in.Rows; r++ {
				in.Set(r, c, in.At(r, c)*30)
			}
		}
		w := QuantizeWeights(tensor.RandNormal(rng, cal.Cols, 6, 0.5), cal.Cfg.Bits)
		wf := w.Dequantize()
		imp := cal.MatMulImplicit(in, w, wf)
		exp := cal.MatMulExplicit(in, w, wf)
		// Biases near the float64 range can overflow the bias×W term in
		// both paths alike; only finite reference elements are compared.
		scale := 1.0
		for _, v := range exp.Data {
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				scale = math.Max(scale, math.Abs(v)+1)
			}
		}
		for i, e := range exp.Data {
			if math.IsInf(e, 0) || math.IsNaN(e) {
				continue
			}
			if d := math.Abs(imp.Data[i] - e); !(d <= 1e-9*scale) {
				t.Fatalf("element %d: implicit %v vs explicit %v (|Δ| %g, scale %g)", i, imp.Data[i], e, d, scale)
			}
		}
	})
}
