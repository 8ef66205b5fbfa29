package model

import (
	"math"
	"strings"
	"testing"

	"tender/internal/quant"
	"tender/internal/schemes"
	"tender/internal/tensor"
	"tender/internal/workload"
)

func tinyModel() *Model { return New(TinyConfig()) }

// tinyEncoder is TinyConfig as a two-class encoder.
func tinyEncoder() *Model {
	cfg := TinyConfig()
	cfg.Arch = Encoder
	cfg.NumClasses = 2
	return New(cfg)
}

func tinyTokens(seed uint64, n int) []int {
	return workload.TokenStream(workload.Wiki, seed, n, TinyConfig().Vocab)
}

func TestRegistryModels(t *testing.T) {
	for _, name := range []string{
		"opt-6.7b", "opt-13b", "opt-66b",
		"llama-2-7b", "llama-2-13b", "llama-2-70b",
		"llama-7b", "llama-13b", "llama-65b", "bert-large",
	} {
		cfg := Registry(name)
		if cfg.Name != name {
			t.Fatalf("registry name mismatch: %s", cfg.Name)
		}
	}
	// Bigger paper models map to bigger scaled configs.
	if !(Registry("opt-66b").DModel > Registry("opt-6.7b").DModel) {
		t.Fatal("opt-66b should be wider than opt-6.7b")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown model must panic")
		}
	}()
	Registry("gpt-5")
}

func TestModelDeterministic(t *testing.T) {
	a := tinyModel()
	b := tinyModel()
	toks := tinyTokens(1, 16)
	la := a.Forward(toks, Exact{})
	lb := b.Forward(toks, Exact{})
	if tensor.MaxAbsDiff(la, lb) != 0 {
		t.Fatal("same config must give identical models")
	}
}

func TestForwardShapeAndFiniteness(t *testing.T) {
	m := tinyModel()
	toks := tinyTokens(2, 20)
	logits := m.Forward(toks, Exact{})
	if logits.Rows != 20 || logits.Cols != m.Cfg.Vocab {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
	for _, v := range logits.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite logit")
		}
	}
}

// TestForwardValidation: an empty sequence, an out-of-vocab token and an
// over-long sequence are refused with the model's own message, not a
// runtime error from deep inside the pass — by Forward and ClassifyLogits.
func TestForwardValidation(t *testing.T) {
	dec, enc := tinyModel(), tinyEncoder()
	for name, run := range map[string]func([]int){
		"Forward":        func(toks []int) { dec.Forward(toks, Exact{}) },
		"ClassifyLogits": func(toks []int) { enc.ClassifyLogits(toks, Exact{}) },
	} {
		for _, toks := range [][]int{{}, {dec.Cfg.Vocab}, {-1}, make([]int, dec.Cfg.MaxSeq+1)} {
			func() {
				defer func() {
					msg, ok := recover().(string)
					if !ok || !strings.HasPrefix(msg, "model: ") {
						t.Fatalf("%s of %d tokens: panic %q, want a model: message", name, len(toks), msg)
					}
				}()
				run(toks)
			}()
		}
	}
}

func TestCausalityOfDecoder(t *testing.T) {
	// Changing a future token must not change past logits.
	m := tinyModel()
	a := tinyTokens(3, 12)
	b := append([]int(nil), a...)
	b[11] = (b[11] + 1) % m.Cfg.Vocab
	la := m.Forward(a, Exact{})
	lb := m.Forward(b, Exact{})
	for t2 := 0; t2 < 11; t2++ {
		for v := 0; v < m.Cfg.Vocab; v++ {
			if la.At(t2, v) != lb.At(t2, v) {
				t.Fatalf("future token leaked into position %d", t2)
			}
		}
	}
	// But the last position must change (it sees the changed token).
	if tensor.MaxAbsDiff(la.RowView(11, 12), lb.RowView(11, 12)) == 0 {
		t.Fatal("current token should affect its own logits")
	}
}

func TestActivationOutliersAppear(t *testing.T) {
	// The recorded attention-layer inputs must show the fixed-channel
	// outliers of Figs. 2-3.
	m := New(Registry("opt-6.7b"))
	rec := NewRecorder()
	m.Forward(workload.TokenStream(workload.Wiki, 1, 64, m.Cfg.Vocab), rec)
	for l := 0; l < m.Cfg.Layers; l++ {
		x := rec.X[Site{l, KindQ, -1}][0]
		st := workload.Channels(x)
		if n := st.OutlierChannelCount(8); n < 2 {
			t.Fatalf("layer %d shows only %d outlier channels", l, n)
		}
	}
	// Outliers must sit in the model's fixed OutlierSet channels.
	x := rec.X[Site{1, KindQ, -1}][0]
	absmax := x.AbsMaxPerCol()
	med := MedianOf(absmax)
	top := m.OutlierSet[0]
	if absmax[top] < 5*med {
		t.Fatalf("designated outlier channel %d not large: %v vs median %v", top, absmax[top], med)
	}
}

func TestSitesEnumeration(t *testing.T) {
	m := tinyModel()
	sites := m.Sites()
	want := m.Cfg.Layers * (6 + 2*m.Cfg.Heads)
	if len(sites) != want {
		t.Fatalf("got %d sites, want %d", len(sites), want)
	}
	seen := map[Site]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatalf("duplicate site %v", s)
		}
		seen[s] = true
	}
	if (Site{0, KindScore, 1}).String() != "L0/score/h1" {
		t.Fatal("site string changed")
	}
	if !KindScore.IsActAct() || !KindValue.IsActAct() || KindQ.IsActAct() {
		t.Fatal("IsActAct misclassifies")
	}
}

// TestRecorderCapturesAllSites: Record leaves one sample per stream at
// every site — the score and value sites of every head included — for a
// decoder and for an encoder.
func TestRecorderCapturesAllSites(t *testing.T) {
	for name, m := range map[string]*Model{"decoder": tinyModel(), "encoder": tinyEncoder()} {
		rec := NewRecorder()
		m.Record(rec, [][]int{tinyTokens(4, 16), tinyTokens(5, 8)})
		for _, s := range m.Sites() {
			if len(rec.X[s]) != 2 || len(rec.W[s]) != 2 {
				t.Fatalf("%s: site %v recorded %d times, want 2", name, s, len(rec.X[s]))
			}
		}
		if len(rec.X) != len(m.Sites()) {
			t.Fatalf("%s: %d sites recorded, model has %d", name, len(rec.X), len(m.Sites()))
		}
	}
}

func TestSchemeEngineActActGating(t *testing.T) {
	m := tinyModel()
	streams := [][]int{tinyTokens(5, 16)}
	toks := tinyTokens(6, 16)
	ref := m.Forward(toks, Exact{})
	// FP32 scheme quantizes nothing: identical logits either way.
	engOff := CalibrateModel(m, schemes.FP32{}, 8, false, streams)
	if tensor.MaxAbsDiff(ref, m.Forward(toks, engOff)) != 0 {
		t.Fatal("FP32 engine must be exact")
	}
	// INT4 per-tensor: quantizing act-act sites must add further error.
	off := CalibrateModel(m, schemes.Uniform{ActGran: quant.PerTensor, Dynamic: true}, 4, false, streams)
	on := CalibrateModel(m, schemes.Uniform{ActGran: quant.PerTensor, Dynamic: true}, 4, true, streams)
	eOff := tensor.MSE(ref, m.Forward(toks, off))
	eOn := tensor.MSE(ref, m.Forward(toks, on))
	if eOn <= eOff {
		t.Fatalf("quantizing act-act matmuls should increase error: %g vs %g", eOn, eOff)
	}
}

func TestSchemeEngineUnseenSiteFallsBack(t *testing.T) {
	e := &SchemeEngine{Scheme: schemes.FP32{}, Bits: 8, QuantActAct: true,
		sites: map[Site]compiledSite{}, valueScales: map[Site]float64{}}
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(rng, 4, 4, 1)
	w := tensor.RandNormal(rng, 4, 4, 1)
	out := e.MatMul(Site{9, KindQ, -1}, x, w)
	if tensor.MaxAbsDiff(out, tensor.MatMul(x, w)) != 0 {
		t.Fatal("unseen weight site must fall back to exact")
	}
}

func TestTeacherPerplexityProperties(t *testing.T) {
	m := tinyModel()
	toks := tinyTokens(7, 32)
	streams := [][]int{tinyTokens(8, 32)}
	temp := CalibrateTemperature(m, toks, 8.0)
	// Base anchoring.
	r := TeacherPerplexity(m, CalibrateModel(m, schemes.FP32{}, 8, false, streams), toks, temp)
	if math.Abs(r.Base-8.0) > 0.05 {
		t.Fatalf("temperature calibration missed: base %v", r.Base)
	}
	if math.Abs(r.PPL-r.Base) > 1e-9 {
		t.Fatal("FP32 PPL must equal the base")
	}
	// FP16 adds only a sliver.
	r16 := TeacherPerplexity(m, CalibrateModel(m, schemes.FP16{}, 8, false, streams), toks, temp)
	if r16.PPL < r16.Base || r16.PPL > r16.Base*1.05 {
		t.Fatalf("FP16 PPL out of expected band: %v vs base %v", r16.PPL, r16.Base)
	}
	// INT4 per-tensor must be far worse than INT8 per-column.
	bad := TeacherPerplexity(m, CalibrateModel(m, schemes.Uniform{ActGran: quant.PerTensor, Dynamic: true}, 4, false, streams), toks, temp)
	good := TeacherPerplexity(m, CalibrateModel(m, schemes.Uniform{ActGran: quant.PerColumn, Dynamic: true}, 8, false, streams), toks, temp)
	if bad.PPL < good.PPL {
		t.Fatalf("INT4 per-tensor %v should exceed INT8 per-column %v", bad.PPL, good.PPL)
	}
	if bad.PPL < r.Base {
		t.Fatal("PPL must never beat the base")
	}
}

func TestPerplexityFiniteForGarbage(t *testing.T) {
	// A scheme that zeroes everything must yield a huge but finite PPL.
	m := tinyModel()
	toks := tinyTokens(9, 24)
	zero := schemes.MatMulFunc(func(x, w *tensor.Matrix) *tensor.Matrix {
		return tensor.New(x.Rows, w.Cols)
	})
	e := &SchemeEngine{Bits: 8, QuantActAct: false,
		sites: map[Site]compiledSite{}, valueScales: map[Site]float64{}}
	for _, s := range m.Sites() {
		e.sites[s] = compiledSite{kernel: zero}
	}
	r := TeacherPerplexity(m, e, toks, 0.3)
	if math.IsInf(r.PPL, 0) || math.IsNaN(r.PPL) {
		t.Fatal("PPL must stay finite")
	}
	if r.PPL < 2*r.Base {
		t.Fatalf("zeroed model should be much worse than base: %v vs %v", r.PPL, r.Base)
	}
}

func TestEncoderClassification(t *testing.T) {
	m := New(Registry("bert-large"))
	task := MakeClassificationTask(m, "toy", 40, 24, 0.9, 11)
	if len(task.Inputs) != 40 {
		t.Fatal("task size wrong")
	}
	// FP32 accuracy ≈ target (it disagrees only on flipped labels).
	acc := ClassificationAccuracy(m, Exact{}, task)
	if acc < 80 || acc > 100 {
		t.Fatalf("teacher accuracy %v far from target 90", acc)
	}
	// Brutal quantization must not beat the teacher.
	streams := [][]int{workload.TokenStream(workload.Wiki, 1, 24, m.Cfg.Vocab)}
	bad := CalibrateModel(m, schemes.Uniform{ActGran: quant.PerTensor, Dynamic: true}, 4, true, streams)
	accQ := ClassificationAccuracy(m, bad, task)
	if accQ > acc+5 {
		t.Fatalf("INT4 per-tensor (%v) should not beat FP32 (%v)", accQ, acc)
	}
}

func TestZeroShotTask(t *testing.T) {
	m := tinyModel()
	task := MakeZeroShotTask(m, "toy", 30, 16, 4, 0.8, 13)
	if len(task.Candidates) != 30 || len(task.Candidates[0]) != 4 {
		t.Fatal("candidate layout wrong")
	}
	acc := ZeroShotAccuracy(m, Exact{}, task)
	if acc < 60 || acc > 100 {
		t.Fatalf("teacher zero-shot accuracy %v far from target 80", acc)
	}
	// Candidates must be distinct tokens.
	for _, cs := range task.Candidates {
		seen := map[int]bool{}
		for _, c := range cs {
			if seen[c] {
				t.Fatal("duplicate candidate token")
			}
			seen[c] = true
		}
	}
}

func TestCalibrateTemperatureMonotone(t *testing.T) {
	m := tinyModel()
	toks := tinyTokens(14, 32)
	t1 := CalibrateTemperature(m, toks, 5)
	t2 := CalibrateTemperature(m, toks, 20)
	if t1 >= t2 {
		t.Fatalf("higher target perplexity needs higher temperature: %v vs %v", t1, t2)
	}
}

func TestMSELogits(t *testing.T) {
	m := tinyModel()
	toks := tinyTokens(15, 16)
	if MSELogits(m, Exact{}, toks) != 0 {
		t.Fatal("exact engine must have zero logit MSE")
	}
	streams := [][]int{tinyTokens(16, 16)}
	e := CalibrateModel(m, schemes.Uniform{ActGran: quant.PerTensor, Dynamic: true}, 4, false, streams)
	if MSELogits(m, e, toks) <= 0 {
		t.Fatal("quantized engine must perturb logits")
	}
}

func TestInverseGainScaling(t *testing.T) {
	m := New(Registry("opt-6.7b"))
	lay := m.Layers[0]
	// Weight rows feeding outlier channels must be attenuated relative to
	// a normal channel's row.
	out := m.OutlierSet[0]
	var normRow int
	for c := 0; c < m.Cfg.DModel; c++ {
		isOut := false
		for _, o := range m.OutlierSet {
			if c == o {
				isOut = true
			}
		}
		if !isOut {
			normRow = c
			break
		}
	}
	outNorm := rowNorm(lay.WQ, out)
	nrmNorm := rowNorm(lay.WQ, normRow)
	if outNorm*3 > nrmNorm {
		t.Fatalf("outlier row should be attenuated: %v vs %v", outNorm, nrmNorm)
	}
}

func rowNorm(w *tensor.Matrix, r int) float64 {
	var s float64
	for _, v := range w.Row(r) {
		s += v * v
	}
	return math.Sqrt(s)
}
