package llmint8

import (
	"math"
	"testing"

	"tender/internal/quant"
	"tender/internal/schemes"
	"tender/internal/tensor"
)

func fixtures(seed uint64) (*tensor.Matrix, *tensor.Matrix) {
	rng := tensor.NewRNG(seed)
	x := tensor.RandNormal(rng, 24, 32, 1)
	for r := 0; r < x.Rows; r++ {
		x.Set(r, 4, x.At(r, 4)*30)
		x.Set(r, 20, x.At(r, 20)*25)
	}
	w := tensor.RandNormal(rng, 32, 16, 0.5)
	return x, w
}

func TestOutlierColumnIdentification(t *testing.T) {
	x, w := fixtures(1)
	st := New().NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8).(*site)
	found := map[int]bool{}
	for _, c := range st.outlierCols {
		found[c] = true
	}
	if !found[4] || !found[20] {
		t.Fatalf("outlier columns not detected: %v", st.outlierCols)
	}
	if len(st.outlierCols)+len(st.normalCols) != 32 {
		t.Fatal("columns lost in the split")
	}
}

func TestMixedPrecisionAccuracy(t *testing.T) {
	x, w := fixtures(2)
	want := tensor.MatMul(x, w)
	got := schemes.MatMul(New().NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8), x, w)
	rel := math.Sqrt(tensor.MSE(got, want)) / (want.MeanAbs() + 1e-12)
	if rel > 0.05 {
		t.Fatalf("LLM.int8() relative error %v too large", rel)
	}
	// And it must beat plain per-row INT8 on this outlier-heavy input.
	pr := schemes.Uniform{ActGran: quant.PerRow, Dynamic: true}.NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8)
	if tensor.MSE(got, want) >= tensor.MSE(schemes.MatMul(pr, x, w), want) {
		t.Fatal("mixed precision should beat per-row INT8 with outliers")
	}
}

func TestAllNormalColumns(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.RandNormal(rng, 8, 16, 0.5) // everything below threshold
	w := tensor.RandNormal(rng, 16, 4, 1)
	st := New().NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8).(*site)
	if len(st.outlierCols) != 0 {
		t.Fatalf("no outliers expected, got %v", st.outlierCols)
	}
	out := schemes.MatMul(st, x, w)
	if out.Rows != 8 || out.Cols != 4 {
		t.Fatal("bad shape")
	}
}

func TestAllOutlierColumns(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := tensor.RandNormal(rng, 8, 16, 50) // everything above threshold
	w := tensor.RandNormal(rng, 16, 4, 1)
	st := New().NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8).(*site)
	if len(st.normalCols) != 0 {
		t.Fatalf("all columns should be outliers, got normals %v", st.normalCols)
	}
	got := schemes.MatMul(st, x, w)
	want := tensor.MatMul(x, w)
	rel := math.Sqrt(tensor.MSE(got, want)) / (want.MeanAbs() + 1e-12)
	if rel > 0.01 {
		t.Fatalf("pure-FP16 path error %v too large", rel)
	}
}

func TestCustomThreshold(t *testing.T) {
	x, w := fixtures(5)
	loose := Scheme{Threshold: 1e9}.NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8).(*site)
	if len(loose.outlierCols) != 0 {
		t.Fatal("huge threshold must yield no outliers")
	}
	tight := Scheme{Threshold: 1e-9}.NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8).(*site)
	if len(tight.normalCols) != 0 {
		t.Fatal("tiny threshold must make everything an outlier")
	}
}
