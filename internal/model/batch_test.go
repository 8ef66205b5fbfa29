package model_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// prefill builds n sessions with deterministic prompts of differing
// lengths (so per-session position offsets differ) and returns the
// sessions plus each one's last greedy token.
func prefill(t *testing.T, m *model.Model, eng model.Engine, n int, seed uint64) ([]*model.Session, []int) {
	t.Helper()
	sessions := make([]*model.Session, n)
	last := make([]int, n)
	for i := range sessions {
		prompt := workload.TokenStream(workload.Wiki, seed+uint64(i), 3+2*i, m.Cfg.Vocab)
		sessions[i] = m.NewSession(eng, len(prompt)+16)
		logits := sessions[i].Append(prompt)
		last[i] = model.Greedy(logits.Row(logits.Rows - 1))
	}
	return sessions, last
}

// servable is every registry scheme a serving build accepts — all but
// olive, which TestOliveRejectsFusedDecode covers — plus extra specs.
func servable(extra ...string) []string {
	names := slices.DeleteFunc(engine.SchemeNames(), func(n string) bool { return n == "olive" })
	return append(names, extra...)
}

// offlineEngines is identtest.Engines without the Serving option, for the
// engines a serving build refuses with model.ErrRowCoupled (olive,
// quantized attention); the suites bind them only to one-session paths.
func offlineEngines(t *testing.T, m *model.Model, names []string, qaa bool) map[string]model.Engine {
	t.Helper()
	engines, err := engine.BuildEngines(m, names, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 32, QuantActAct: qaa,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engines
}

// TestFusedStepBitIdentical is the fused-step invariant: for every
// registry scheme a serving build accepts, model.Step produces logits
// bit-identical to stepping each session alone through Session.Append —
// greedy and sampled, with passes that mix prefill chunks of several
// lengths and decode tokens, including after members finish mid-decode
// (the harness staggers starts and emission budgets).
func TestFusedStepBitIdentical(t *testing.T) {
	m := model.New(model.TinyConfig())
	names := servable("tender:int", "uniform:gran=tensor", "uniform:gran=row",
		"fp16:kernel=blocked", "fp32:kernel=blocked")
	identtest.Matrix{
		Model:   m,
		Engines: identtest.Engines(t, m, names),
		Schemes: names,
		Temps:   []float64{0, 0.7},
		Paths:   []identtest.Path{{Label: "fused", D: identtest.Fused(tensor.DefaultPageRows)}},
	}.Run(t)
}

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("unexpected panic: %v", msg)
		}
	}()
	f()
}

// TestOliveRejectsFusedDecode: OliVe's cross-row pair encoding is
// row-dependent; fusing it would change tokens, so the audit must fail it
// and Step must refuse to stack two of its sessions — while a single
// session still steps. The serving build refuses it, so it is built
// offline.
func TestOliveRejectsFusedDecode(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := offlineEngines(t, m, []string{"olive", "fp32"}, false)
	if m.RowIndependent(engines["olive"]) {
		t.Fatal("olive must not pass the row-independence audit")
	}
	if !m.RowIndependent(engines["fp32"]) {
		t.Fatal("fp32 must pass the row-independence audit")
	}
	a, b := m.NewSession(engines["olive"], 8), m.NewSession(engines["olive"], 8)
	model.Step([]model.Segment{{S: a, Tokens: []int{1, 2}}}, tensor.New(1, m.Cfg.Vocab))
	mustPanic(t, "row-dependent", func() {
		model.Step([]model.Segment{{S: a, Tokens: []int{3}}, {S: b, Tokens: []int{1}}}, tensor.New(2, m.Cfg.Vocab))
	})
}

// TestBatchStepperMatchesAppend: the session-list BatchStepper refuses a
// row-dependent engine and steps one decode token per session exactly as
// Session.Append does.
func TestBatchStepperMatchesAppend(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := offlineEngines(t, m, []string{"olive", "fp32"}, false)
	if _, err := m.NewBatchStepper(engines["olive"]); err == nil {
		t.Fatal("NewBatchStepper accepted the row-dependent olive engine")
	}
	bs, err := m.NewBatchStepper(engines["fp32"])
	if err != nil {
		t.Fatal(err)
	}
	sessions, last := prefill(t, m, engines["fp32"], 3, 5)
	refs, _ := prefill(t, m, engines["fp32"], 3, 5)
	logits := bs.Step(sessions, last)
	for i, ref := range refs {
		want := ref.Append(last[i : i+1]).Row(0)
		for j, v := range logits.Row(i) {
			if v != want[j] {
				t.Fatalf("session %d logit %d: %v, Append gives %v", i, j, v, want[j])
			}
		}
	}
}

// TestFusedSteppersConcurrentOnSharedEngine: Steps over one packed engine
// on disjoint sessions may run concurrently (run under -race in CI).
// Outputs must still match the sequential reference.
func TestFusedSteppersConcurrentOnSharedEngine(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := identtest.Engines(t, m, []string{"smoothquant"})
	eng := engines["smoothquant"]
	ref := func(seed uint64) []int {
		sess, last := prefill(t, m, eng, 2, seed)
		var out []int
		for step := 0; step < 4; step++ {
			for i := range sess {
				last[i] = model.Greedy(sess[i].Append([]int{last[i]}).Row(0))
				out = append(out, last[i])
			}
		}
		return out
	}
	want := [][]int{ref(41), ref(42)}
	got := make([][]int, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			segs := make([]model.Segment, 2)
			last := make([]int, 2)
			logits := tensor.New(2, m.Cfg.Vocab)
			for i := range segs {
				prompt := workload.TokenStream(workload.Wiki, 41+uint64(g)+uint64(i), 3+2*i, m.Cfg.Vocab)
				segs[i] = model.Segment{S: m.NewSession(eng, len(prompt)+16), Tokens: prompt}
			}
			model.Step(segs, logits) // both prompts in one pass
			for step := 0; step <= 4; step++ {
				for i := range segs {
					last[i] = model.Greedy(logits.Row(i))
					if step > 0 {
						got[g] = append(got[g], last[i])
					}
					segs[i].Tokens = last[i : i+1]
				}
				if step < 4 {
					model.Step(segs, logits)
				}
			}
		}(g)
	}
	wg.Wait()
	identtest.Equal(t, "concurrent steps", identtest.Output{Tokens: got}, identtest.Output{Tokens: want})
}

// TestStepRejectsMismatchedSessions: sessions bound to another engine,
// empty segments and a wrongly shaped logits matrix must be refused
// loudly, not silently mis-served.
func TestStepRejectsMismatchedSessions(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := identtest.Engines(t, m, []string{"fp32", "fp16"})
	mine := m.NewSession(engines["fp32"], 8)
	other := m.NewSession(engines["fp16"], 8)
	other.Append([]int{1, 2})
	vocab := m.Cfg.Vocab
	mustPanic(t, "different model or engine", func() {
		model.Step([]model.Segment{{S: mine, Tokens: []int{1}}, {S: other, Tokens: []int{3}}}, tensor.New(2, vocab))
	})
	mustPanic(t, "empty segment", func() {
		model.Step([]model.Segment{{S: mine}}, tensor.New(1, vocab))
	})
	mustPanic(t, "logits", func() {
		model.Step([]model.Segment{{S: mine, Tokens: []int{1}}}, tensor.New(2, vocab))
	})
	mustPanic(t, "no segments", func() { model.Step(nil, nil) })
}
