package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v", got)
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v", row[2])
	}
	row[0] = -1 // row aliases storage
	if m.At(1, 0) != -1 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape %dx%d", tr.Rows, tr.Cols)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != tr.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(7)
	m := RandNormal(rng, 5, 9, 1)
	back := m.Transpose().Transpose()
	if MaxAbsDiff(m, back) != 0 {
		t.Fatal("transpose twice must be identity")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	m := RandNormal(rng, 6, 6, 2)
	id := New(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(i, i, 1)
	}
	if MaxAbsDiff(MatMul(m, id), m) > 1e-12 {
		t.Fatal("m × I != m")
	}
	if MaxAbsDiff(MatMul(id, m), m) > 1e-12 {
		t.Fatal("I × m != m")
	}
}

func TestMatMulParallelMatchesSequential(t *testing.T) {
	// Large enough to cross parallelThreshold.
	rng := NewRNG(3)
	a := RandNormal(rng, 128, 96, 1)
	b := RandNormal(rng, 96, 80, 1)
	got := MatMul(a, b)
	want := New(128, 80)
	matmulRows(a, b, want, 0, 128)
	if MaxAbsDiff(got, want) != 0 {
		t.Fatal("parallel and sequential kernels disagree")
	}
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulInt(t *testing.T) {
	a := []int8{1, -2, 3, 4, 0, -1}
	b := []int8{2, 1, -1, 3, 5, -2}
	// a is 2x3, b is 3x2
	got := MatMulInt(2, 3, a, 2, b)
	want := []int32{
		1*2 + (-2)*(-1) + 3*5, 1*1 + (-2)*3 + 3*(-2),
		4*2 + 0*(-1) + (-1)*5, 4*1 + 0*3 + (-1)*(-2),
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func TestMatMulIntMatchesFloat(t *testing.T) {
	rng := NewRNG(11)
	rows, inner, cols := 13, 17, 9
	ai := make([]int8, rows*inner)
	bi := make([]int8, inner*cols)
	af := New(rows, inner)
	bf := New(inner, cols)
	for i := range ai {
		ai[i] = int8(rng.Intn(255) - 127)
		af.Data[i] = float64(ai[i])
	}
	for i := range bi {
		bi[i] = int8(rng.Intn(255) - 127)
		bf.Data[i] = float64(bi[i])
	}
	gi := MatMulInt(rows, inner, ai, cols, bi)
	gf := MatMul(af, bf)
	for i := range gi {
		if float64(gi[i]) != gf.Data[i] {
			t.Fatalf("int/float GEMM mismatch at %d: %d vs %v", i, gi[i], gf.Data[i])
		}
	}
}

func TestSubColsAndSet(t *testing.T) {
	m := FromSlice(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	sub := m.SubCols([]int{3, 1})
	want := FromSlice(2, 2, []float64{4, 2, 8, 6})
	if MaxAbsDiff(sub, want) != 0 {
		t.Fatalf("SubCols got %v", sub)
	}
	sub.Scale(10)
	m.SetSubCols([]int{3, 1}, sub)
	if m.At(0, 3) != 40 || m.At(1, 1) != 60 {
		t.Fatalf("SetSubCols wrote %v", m)
	}
}

func TestSubRowsAndViews(t *testing.T) {
	m := FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s := m.SubRows(1, 3)
	if s.Rows != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("SubRows got %v", s)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) == 99 {
		t.Fatal("SubRows must copy")
	}
	v := m.RowView(1, 3)
	v.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("RowView must alias")
	}
}

func TestSubColsRange(t *testing.T) {
	m := FromSlice(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s := m.SubColsRange(1, 3)
	want := FromSlice(2, 2, []float64{2, 3, 6, 7})
	if MaxAbsDiff(s, want) != 0 {
		t.Fatalf("got %v", s)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if got := Add(a, b); MaxAbsDiff(got, FromSlice(1, 3, []float64{5, 7, 9})) != 0 {
		t.Fatalf("Add got %v", got)
	}
	if got := Sub(b, a); MaxAbsDiff(got, FromSlice(1, 3, []float64{3, 3, 3})) != 0 {
		t.Fatalf("Sub got %v", got)
	}
	c := a.Clone().Scale(2)
	if MaxAbsDiff(c, FromSlice(1, 3, []float64{2, 4, 6})) != 0 {
		t.Fatalf("Scale got %v", c)
	}
	AddInPlace(a, b)
	if a.At(0, 2) != 9 {
		t.Fatal("AddInPlace failed")
	}
}

func TestRowColVectorOps(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 1, 1, 2, 2, 2})
	m.AddRowVector([]float64{1, 2, 3})
	if m.At(0, 2) != 4 || m.At(1, 0) != 3 {
		t.Fatalf("AddRowVector got %v", m)
	}
	m = FromSlice(2, 3, []float64{1, 1, 1, 2, 2, 2})
	m.MulColVector([]float64{2, 3, 4})
	if m.At(1, 2) != 8 || m.At(0, 0) != 2 {
		t.Fatalf("MulColVector got %v", m)
	}
	m = FromSlice(2, 3, []float64{1, 1, 1, 2, 2, 2})
	m.MulRowVector([]float64{10, 100})
	if m.At(0, 0) != 10 || m.At(1, 2) != 200 {
		t.Fatalf("MulRowVector got %v", m)
	}
}

func TestStats(t *testing.T) {
	m := FromSlice(2, 3, []float64{-5, 2, 0, 3, -1, 4})
	if m.AbsMax() != 5 {
		t.Fatalf("AbsMax = %v", m.AbsMax())
	}
	pc := m.AbsMaxPerCol()
	if pc[0] != 5 || pc[1] != 2 || pc[2] != 4 {
		t.Fatalf("AbsMaxPerCol = %v", pc)
	}
	pr := m.AbsMaxPerRow()
	if pr[0] != 5 || pr[1] != 4 {
		t.Fatalf("AbsMaxPerRow = %v", pr)
	}
	mins, maxs := m.MinMaxPerCol()
	if mins[0] != -5 || maxs[0] != 3 || mins[2] != 0 || maxs[2] != 4 {
		t.Fatalf("MinMaxPerCol = %v %v", mins, maxs)
	}
	if !almostEqual(m.MeanAbs(), (5+2+0+3+1+4)/6.0, 1e-12) {
		t.Fatalf("MeanAbs = %v", m.MeanAbs())
	}
}

func TestMSE(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{3, 2})
	if got := MSE(a, b); got != 2 {
		t.Fatalf("MSE = %v", got)
	}
	if MSE(a, a) != 0 {
		t.Fatal("MSE(a,a) must be 0")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	SoftmaxRows(m)
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range m.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	// Monotone: larger logits larger probs.
	if !(m.At(0, 0) < m.At(0, 1) && m.At(0, 1) < m.At(0, 2)) {
		t.Fatal("softmax not monotone")
	}
	// Uniform row stays uniform even with huge magnitudes (stability).
	if !almostEqual(m.At(1, 0), 1.0/3, 1e-9) {
		t.Fatalf("stable softmax failed: %v", m.At(1, 0))
	}
}

func TestLayerNormRows(t *testing.T) {
	rng := NewRNG(5)
	m := RandNormal(rng, 4, 64, 3)
	gain := make([]float64, 64)
	bias := make([]float64, 64)
	for i := range gain {
		gain[i] = 1
	}
	LayerNormRows(m, gain, bias)
	for r := 0; r < m.Rows; r++ {
		var mean, variance float64
		for _, v := range m.Row(r) {
			mean += v
		}
		mean /= 64
		for _, v := range m.Row(r) {
			variance += (v - mean) * (v - mean)
		}
		variance /= 64
		if !almostEqual(mean, 0, 1e-9) || !almostEqual(variance, 1, 1e-3) {
			t.Fatalf("row %d mean %v var %v", r, mean, variance)
		}
	}
}

func TestLayerNormGainScalesChannel(t *testing.T) {
	rng := NewRNG(6)
	m := RandNormal(rng, 32, 16, 1)
	gain := make([]float64, 16)
	bias := make([]float64, 16)
	for i := range gain {
		gain[i] = 1
	}
	gain[3] = 50 // outlier channel, as in LLMs
	LayerNormRows(m, gain, bias)
	col := 0.0
	other := 0.0
	for r := 0; r < m.Rows; r++ {
		col += math.Abs(m.At(r, 3))
		other += math.Abs(m.At(r, 5))
	}
	if col < 10*other {
		t.Fatalf("outlier channel not amplified: %v vs %v", col, other)
	}
}

func TestReLUGELU(t *testing.T) {
	m := FromSlice(1, 3, []float64{-1, 0, 2})
	ReLU(m)
	if m.At(0, 0) != 0 || m.At(0, 2) != 2 {
		t.Fatalf("ReLU got %v", m)
	}
	g := FromSlice(1, 3, []float64{-10, 0, 10})
	GELU(g)
	if !almostEqual(g.At(0, 0), 0, 1e-3) || !almostEqual(g.At(0, 1), 0, 1e-12) || !almostEqual(g.At(0, 2), 10, 1e-3) {
		t.Fatalf("GELU got %v", g)
	}
}

func TestCausalMask(t *testing.T) {
	m := New(3, 3)
	CausalMaskInPlace(m)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			masked := math.IsInf(m.At(r, c), -1)
			if c > r && !masked {
				t.Fatalf("(%d,%d) should be masked", r, c)
			}
			if c <= r && masked {
				t.Fatalf("(%d,%d) should not be masked", r, c)
			}
		}
	}
}

func TestCausalMaskOffset(t *testing.T) {
	// 2 query rows at absolute positions 3 and 4 over 5 cached keys.
	m := New(2, 5)
	CausalMaskOffsetInPlace(m, 3)
	for r := 0; r < 2; r++ {
		for c := 0; c < 5; c++ {
			masked := math.IsInf(m.At(r, c), -1)
			want := c > r+3
			if masked != want {
				t.Fatalf("mask[%d][%d] = %v, want %v", r, c, masked, want)
			}
		}
	}
	// Offset 0 on a square matrix matches the prefill mask.
	a, b := New(4, 4), New(4, 4)
	CausalMaskInPlace(a)
	CausalMaskOffsetInPlace(b, 0)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] && !(math.IsInf(a.Data[i], -1) && math.IsInf(b.Data[i], -1)) {
			t.Fatalf("offset-0 mask disagrees with CausalMaskInPlace at %d", i)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(99)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("Norm moments off: mean %v var %v", mean, variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(1)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0, 0},
		{1, 1},
		{-1, -1},
		{0.5, 0.5},
		{65504, 65504},       // max half
		{65520, math.Inf(1)}, // rounds to Inf
		{1e-8, 0},            // underflow (below subnormal granularity/2)
		{0x1p-24, 0x1p-24},   // smallest subnormal
		{2049, 2048},         // rounds to even (11-bit significand)
		{2051, 2052},         // rounds up
		{-65520, math.Inf(-1)},
	}
	for _, c := range cases {
		got := F16Round(c.in)
		if math.IsInf(c.want, 0) {
			if !math.IsInf(got, int(math.Copysign(1, c.want))) {
				t.Fatalf("F16Round(%v) = %v, want %v", c.in, got, c.want)
			}
			continue
		}
		if got != c.want {
			t.Fatalf("F16Round(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(F16Round(math.NaN())) {
		t.Fatal("NaN must round to NaN")
	}
}

func TestF16RoundIdempotent(t *testing.T) {
	f := func(x float64) bool {
		// Map arbitrary float64 into the half range to avoid Inf round-trips.
		x = math.Mod(x, 60000)
		if math.IsNaN(x) {
			return true
		}
		once := F16Round(x)
		twice := F16Round(once)
		return once == twice || (math.IsNaN(once) && math.IsNaN(twice))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestF16RelativeError(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 30000)
		if math.Abs(x) < 1e-3 {
			return true // subnormal range has absolute, not relative, bounds
		}
		r := F16Round(x)
		return math.Abs(r-x) <= math.Abs(x)*0x1p-11+1e-30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestF16BitsRoundTrip(t *testing.T) {
	// Every finite half value must survive bits→float→bits exactly.
	for h := 0; h < 1<<16; h++ {
		bits := uint16(h)
		f := F16FromBits(bits)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		back := F16Bits(f)
		if back != bits && !(f == 0 && back&0x7fff == 0) {
			t.Fatalf("bits %#04x → %v → %#04x", bits, f, back)
		}
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := RandNormal(rng, 4, 5, 1)
		b := RandNormal(rng, 4, 5, 1)
		w := RandNormal(rng, 5, 3, 1)
		lhs := MatMul(Add(a, b), w)
		rhs := Add(MatMul(a, w), MatMul(b, w))
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
