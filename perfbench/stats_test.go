package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"tender/internal/model"
	"tender/internal/tensor"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},  // rank 90 of 100: exactly ten above
		{99, 0.9, 90, false},  // nine above
		{200, 0.9, 180, true}, // twenty above
		{21, 0.5, 11, true},   // median with ten above
		{20, 0.5, 10, true},   // median with ten above needs 20 samples
		{19, 0.5, 10, false},  // nine above
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	xs := seq(100)
	percentile(xs, 0.9)
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestTPOTExcludesSingleToken(t *testing.T) {
	if _, ok := tpot(50, 50, 1); ok {
		t.Error("a one-token answer produced a TPOT sample")
	}
	if got, ok := tpot(130, 10, 5); !ok || got != 30 {
		t.Errorf("tpot(130ms, 10ms, 5 tokens) = %v, %v; want 30, true", got, ok)
	}
	// One-token requests add no TPOT samples: a window where most answers
	// are a single token still reports the multi-token requests' 30 ms,
	// where counting the others as zero would report 0.
	t0 := time.Unix(0, 0)
	var outs []outcome
	for i := 0; i < 220; i++ {
		o := outcome{idx: i, start: t0, end: t0.Add(70 * time.Millisecond), ttftMs: 10, tokens: []int{1, 2, 3}}
		if i < 120 {
			o.end, o.tokens = t0.Add(10*time.Millisecond), []int{1}
		}
		outs = append(outs, o)
	}
	ws, err := summarize(outs, t0, t0.Add(time.Second), slo{ttftMs: 100, tpotMs: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ws.tpotP50 != 30 || ws.tpotP90 != 30 {
		t.Errorf("tpot p50 %v p90 %v, want 30 and 30", ws.tpotP50, ws.tpotP90)
	}
	// With fewer than 100 multi-token answers p90 is refused.
	if _, err := summarize(outs[:219], t0, t0.Add(time.Second), slo{ttftMs: 100, tpotMs: 100}, false); err == nil {
		t.Error("p90 over 99 TPOT samples was accepted")
	}
}

func TestSLOCountsFailuresAsMisses(t *testing.T) {
	t0 := time.Unix(0, 0)
	ok := outcome{start: t0, end: t0.Add(100 * time.Millisecond), ttftMs: 10, tokens: []int{1, 2, 3, 4}}
	slowFirst := ok
	slowFirst.ttftMs = 300
	slowTail := outcome{start: t0, end: t0.Add(400 * time.Millisecond), ttftMs: 10, tokens: []int{1, 2}}
	single := outcome{start: t0, end: t0.Add(20 * time.Millisecond), ttftMs: 20, tokens: []int{7}}
	failed := outcome{start: t0, end: t0.Add(5 * time.Millisecond), err: errors.New("503")}
	limits := slo{ttftMs: 200, tpotMs: 50}
	outs := []outcome{ok, slowFirst, slowTail, single, failed}
	// ok and single meet both limits; slowFirst misses TTFT, slowTail
	// misses TPOT (390 ms for one gap), failed misses by definition.
	if got := sloOKFrac(outs, limits); got != 2.0/5 {
		t.Errorf("slo_ok_frac = %v, want 0.4", got)
	}
	if got := sloOKFrac(outs[:1], limits); got != 1 {
		t.Errorf("slo_ok_frac of one good request = %v", got)
	}
	if got := sloOKFrac([]outcome{failed}, limits); got != 0 {
		t.Errorf("slo_ok_frac of one failed request = %v", got)
	}
}

func TestHTTPTTFT(t *testing.T) {
	// 30 ms round trip; the server took 25 ms, its first token at 5 ms:
	// the 20 ms after the first token are subtracted and the 5 ms of edge
	// count toward the first token.
	if got := httpTTFT(30, 25, 5); got != 10 {
		t.Errorf("httpTTFT = %v, want 10", got)
	}
	// With no edge the client sees the server's own TTFT.
	if got := httpTTFT(25, 25, 5); got != 5 {
		t.Errorf("httpTTFT without edge = %v, want 5", got)
	}
}

func TestWindowTokensProrates(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	outs := []outcome{
		// Prompt 100 over [0,100], first token at 100, 10 more over [100,200].
		{start: ms(0), end: ms(200), ttftMs: 100, promptLen: 100, tokens: make([]int, 11)},
		{start: ms(0), end: ms(10), err: errors.New("failed")},
	}
	p, d := windowTokens(outs, ms(50), ms(150))
	if math.Abs(p-50) > 1e-9 || math.Abs(d-6) > 1e-9 {
		t.Errorf("window [50,150]: prompt %v decode %v, want 50 and 6", p, d)
	}
	p, d = windowTokens(outs, ms(0), ms(1000))
	if p != 100 || d != 11 {
		t.Errorf("whole window: prompt %v decode %v, want 100 and 11", p, d)
	}
}

// fakeEngine has MatMul only; fullEngine adds every optional capability.
type fakeEngine struct{}

func (fakeEngine) MatMul(site model.Site, x, w *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMul(x, w)
}

type riEngine struct{ fakeEngine }

func (riEngine) RowIndependentMatMul(model.Site) bool { return true }

type fullEngine struct{ riEngine }

func (fullEngine) MatMulInto(site model.Site, x, w, out *tensor.Matrix) { tensor.MatMulInto(x, w, out) }
func (fullEngine) ExactActAct() bool                                    { return true }

func TestWrapEngineForwardsCapabilities(t *testing.T) {
	for _, e := range []model.Engine{fakeEngine{}, riEngine{}, fullEngine{}, model.Exact{}} {
		ks := newKernelStats(1)
		w := wrapEngine(e, ks)
		if err := checkForwarding(e, w); err != nil {
			t.Errorf("%T: %v", e, err)
		}
		x, wt := tensor.New(2, 3), tensor.New(3, 4)
		w.MatMul(model.Site{Layer: 0, Kind: model.KindFC1, Head: -1}, x, wt)
		if into, ok := w.(model.EngineInto); ok {
			into.MatMulInto(model.Site{Layer: 0, Kind: model.KindScore, Head: 0}, x, wt, tensor.New(2, 4))
		}
		fc1 := ks.sites[model.KindFC1]
		if fc1 == nil || fc1.calls != 1 || fc1.rows != 2 || fc1.macs != 24 || fc1.bytes != 8*6+1*12+8*8 {
			t.Errorf("%T: fc1 stats %+v", e, fc1)
		}
	}
}

func TestKernelTimeInsideFusedSteps(t *testing.T) {
	// The wrapped engine must still fuse, and only the calls made by the
	// fused stepper count as fused-step kernel time.
	m := model.New(model.TinyConfig())
	ks := newKernelStats(8)
	eng := wrapEngine(model.Exact{}, ks)
	bs, err := m.NewBatchStepper(eng)
	if err != nil {
		t.Fatalf("wrapped Exact engine lost fused decode: %v", err)
	}
	s := m.NewSession(eng, 0)
	s.Append([]int{1, 2, 3})
	if busy, fused := ks.totals(); busy == 0 || fused != 0 {
		t.Fatalf("after prefill: busy %v fused %v; want busy > 0, fused 0", busy, fused)
	}
	before, _ := ks.totals()
	bs.Step([]*model.Session{s}, []int{4})
	busy, fused := ks.totals()
	if fused == 0 || fused != busy-before {
		t.Errorf("fused step: fused %v, kernel time added %v; want equal and > 0", fused, busy-before)
	}
}
