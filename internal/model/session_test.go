package model_test

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/schemes"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// forwardEngines is every registry scheme — the servable ones built for
// serving, olive offline — plus tender with quantized attention
// (QuantActAct, offline: the serving build refuses it), keyed by label.
func forwardEngines(t *testing.T, m *model.Model) map[string]model.Engine {
	t.Helper()
	engines := identtest.Engines(t, m, servable("tender:int", "uniform:gran=tensor", "uniform:gran=row"))
	maps.Copy(engines, offlineEngines(t, m, []string{"olive"}, false))
	engines["tender+actact"] = offlineEngines(t, m, []string{"tender"}, true)["tender"]
	return engines
}

// TestSessionPrefillMatchesForward: Model.Forward and appending the whole
// prompt in one call both run pass over one segment and must reproduce
// the oracle — the independent full-sequence block of oracle_test.go — bit
// for bit, for every engine: same row-wise computation, empty cache,
// offset-0 mask, and the engine sees exactly the oracle's operands at
// every site. The encoder's bidirectional pass (ClassifyLogits) is held to
// the oracle the same way, for every registry scheme with attention exact
// and quantized.
func TestSessionPrefillMatchesForward(t *testing.T) {
	m := model.New(model.TinyConfig())
	toks := workload.TokenStream(workload.Wiki, 11, 24, m.Cfg.Vocab)
	for name, eng := range forwardEngines(t, m) {
		t.Run(name, func(t *testing.T) {
			ref := m.OracleForward(toks, eng)
			if d := tensor.MaxAbsDiff(ref, m.Forward(toks, eng)); d != 0 {
				t.Fatalf("Forward logits differ from the oracle by %g", d)
			}
			got := m.NewSession(eng, len(toks)).Append(toks)
			if d := tensor.MaxAbsDiff(ref, got); d != 0 {
				t.Fatalf("prefill logits differ from the oracle by %g", d)
			}
		})
	}
	cfg := model.TinyConfig()
	cfg.Arch, cfg.NumClasses = model.Encoder, 2
	enc := model.New(cfg)
	for _, qaa := range []bool{false, true} {
		for name, eng := range offlineEngines(t, enc, engine.SchemeNames(), qaa) {
			t.Run(fmt.Sprintf("encoder/%s/qaa=%v", name, qaa), func(t *testing.T) {
				ref, got := enc.OracleClassifyLogits(toks, eng), enc.ClassifyLogits(toks, eng)
				if !slices.Equal(ref, got) {
					t.Fatalf("classifier logits %v, oracle %v", got, ref)
				}
			})
		}
	}
}

// TestSessionIncrementalMatchesForward: feeding tokens one at a time
// through the KV cache must agree exactly with the oracle's full-sequence
// forward for every engine that passes the row-independence audit — every
// per-position computation is then row-local. Row-coupled (olive) and
// quantized-attention engines fail it and are only bound to their one-shot
// prefill, which TestSessionPrefillMatchesForward covers.
func TestSessionIncrementalMatchesForward(t *testing.T) {
	m := model.New(model.TinyConfig())
	toks := workload.TokenStream(workload.Wiki, 12, 16, m.Cfg.Vocab)
	ran := 0
	for name, eng := range forwardEngines(t, m) {
		if !m.RowIndependent(eng) {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			ref := m.OracleForward(toks, eng)
			sess := m.NewSession(eng, len(toks))
			for i, tok := range toks {
				logits := sess.Append([]int{tok})
				if logits.Rows != 1 {
					t.Fatalf("decode step returned %d rows", logits.Rows)
				}
				if d := tensor.MaxAbsDiff(ref.RowView(i, i+1), logits); d != 0 {
					t.Fatalf("position %d: incremental logits differ by %g", i, d)
				}
			}
			if sess.Len() != len(toks) {
				t.Fatalf("session length %d after %d tokens", sess.Len(), len(toks))
			}
		})
	}
	if ran < 10 {
		t.Fatalf("only %d engines qualified for the incremental check", ran)
	}
}

// TestSessionDecodeDeterministicAcrossCPUs: the same decode is bit-stable
// regardless of GOMAXPROCS (tensor.MatMul partitions rows, and each row's
// accumulation order is fixed).
func TestSessionDecodeDeterministicAcrossCPUs(t *testing.T) {
	m := model.New(model.TinyConfig())
	calib := workload.CalibrationStreams(m.Cfg.Seed, 2, 24, m.Cfg.Vocab)
	eng := model.CalibrateModel(m, schemes.Tender{}, 8, false, calib)
	prompt := workload.TokenStream(workload.PTB, 5, 8, m.Cfg.Vocab)

	decode := func() []int {
		sess := m.NewSession(eng, len(prompt)+12)
		logits := sess.Append(prompt)
		out := make([]int, 0, 12)
		tok := model.Greedy(logits.Row(logits.Rows - 1))
		for i := 0; i < 12; i++ {
			out = append(out, tok)
			tok = model.Greedy(sess.Append([]int{tok}).Row(0))
		}
		return out
	}

	prev := runtime.GOMAXPROCS(1)
	one := decode()
	runtime.GOMAXPROCS(8)
	eight := decode()
	runtime.GOMAXPROCS(prev)
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("token %d differs between GOMAXPROCS 1 and 8: %d vs %d", i, one[i], eight[i])
		}
	}
}

// TestSessionSchemeMatchesItself: under a quantized engine, two identical
// sessions (e.g. the batched and unbatched serving paths) must produce
// identical logits at every step.
func TestSessionSchemeMatchesItself(t *testing.T) {
	m := model.New(model.TinyConfig())
	calib := workload.CalibrationStreams(m.Cfg.Seed, 2, 24, m.Cfg.Vocab)
	eng := model.CalibrateModel(m, schemes.Tender{}, 4, true, calib)
	prompt := workload.TokenStream(workload.Wiki, 6, 10, m.Cfg.Vocab)
	a := m.NewSession(eng, 0)
	b := m.NewSession(eng, 0)
	la, lb := a.Append(prompt), b.Append(prompt)
	if d := tensor.MaxAbsDiff(la, lb); d != 0 {
		t.Fatalf("prefill differs between identical sessions by %g", d)
	}
	tok := model.Greedy(la.Row(la.Rows - 1))
	for i := 0; i < 6; i++ {
		la, lb = a.Append([]int{tok}), b.Append([]int{tok})
		if d := tensor.MaxAbsDiff(la, lb); d != 0 {
			t.Fatalf("decode step %d differs by %g", i, d)
		}
		tok = model.Greedy(la.Row(0))
	}
}

// TestSessionRejectsEncoder: sessions are decoder-only.
func TestSessionRejectsEncoder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for encoder session")
		}
	}()
	cfg := model.TinyConfig()
	cfg.Arch = model.Encoder
	cfg.NumClasses = 2
	model.New(cfg).NewSession(model.Exact{}, 0)
}

// TestSampleDeterminism: Sample is a pure function of (logits, temp, u)
// and degrades to Greedy at temp <= 0.
func TestSampleDeterminism(t *testing.T) {
	logits := []float64{0.1, 2.5, -1, 0.4}
	if model.Sample(logits, 1, 0.3) != model.Sample(logits, 1, 0.3) {
		t.Fatal("Sample not deterministic")
	}
	tiny := []float64{0.5, 3, -1, 2} // greedy: token 1
	for _, c := range []struct {
		name    string
		logits  []float64
		temp, u float64
		want    int
	}{
		{"temp 0 is greedy", logits, 0, 0.7, model.Greedy(logits)},
		{"u near 1 stays in range", logits, 1, 0.999999, len(logits) - 1},
		// logits/temp overflows to ±Inf: the argmax is the limit, not
		// the last vocab id a NaN softmax falls through to.
		{"temp 1e-310 is greedy", tiny, 1e-310, 0.5, 1},
		{"smallest subnormal temp is greedy", tiny, 5e-324, 0.5, 1},
		{"all-negative overflow is greedy", []float64{-3, -0.5, -2}, 1e-310, 0.5, 1},
	} {
		if got := model.Sample(c.logits, c.temp, c.u); got != c.want {
			t.Errorf("%s: Sample = %d, want %d", c.name, got, c.want)
		}
	}
}
