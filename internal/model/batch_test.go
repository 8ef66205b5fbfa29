package model_test

import (
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

// TestFusedStepBitIdentical is the fused-decode invariant: for every
// registry scheme whose engine admits fusion, BatchStepper.Step produces
// logits bit-identical to stepping each session alone through
// Session.Append — greedy and sampled, including after batch members
// finish mid-decode (the harness staggers emission budgets).
func TestFusedStepBitIdentical(t *testing.T) {
	m := model.New(model.TinyConfig())
	names := append(engine.SchemeNames(), "tender:int", "uniform:gran=tensor", "uniform:gran=row",
		"fp16:kernel=blocked", "fp32:kernel=blocked")
	fusable := make([]string, 0, len(names))
	for _, n := range names {
		if n != "olive" { // row-dependent: covered by TestOliveRejectsFusedDecode
			fusable = append(fusable, n)
		}
	}
	identtest.Matrix{
		Model:   m,
		Engines: identtest.Engines(t, m, names),
		Schemes: fusable,
		Temps:   []float64{0, 0.7},
		Paths:   []identtest.Path{{Label: "fused", D: identtest.Fused(tensor.DefaultPageRows)}},
	}.Run(t)
}

// TestOliveRejectsFusedDecode: OliVe's cross-row pair encoding is
// row-dependent; fusing it would change tokens, so NewBatchStepper must
// refuse the engine instead.
func TestOliveRejectsFusedDecode(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := identtest.Engines(t, m, []string{"olive"})
	if _, err := m.NewBatchStepper(engines["olive"]); err == nil {
		t.Fatal("olive must not admit fused decode")
	}
}

// TestFusedSteppersConcurrentOnSharedEngine: separate BatchSteppers over
// one packed engine may run concurrently (run under -race in CI). Outputs
// must still match the sequential reference.
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
			bs, err := m.NewBatchStepper(eng)
			if err != nil {
				t.Error(err)
				return
			}
			sess := make([]*model.Session, 2)
			last := make([]int, 2)
			for i := range sess {
				prompt := workload.TokenStream(workload.Wiki, 41+uint64(g)+uint64(i), 3+2*i, m.Cfg.Vocab)
				sess[i] = m.NewSession(eng, len(prompt)+16)
				lg := sess[i].Append(prompt)
				last[i] = model.Greedy(lg.Row(lg.Rows - 1))
			}
			for step := 0; step < 4; step++ {
				logits := bs.Step(sess, last)
				for i := range sess {
					last[i] = model.Greedy(logits.Row(i))
					got[g] = append(got[g], last[i])
				}
			}
		}(g)
	}
	wg.Wait()
	identtest.Equal(t, "concurrent steppers", identtest.Output{Tokens: got}, identtest.Output{Tokens: want})
}

// TestBatchStepperRejectsMismatchedSessions: sessions bound to another
// engine must be refused loudly, not silently mis-served.
func TestBatchStepperRejectsMismatchedSessions(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := identtest.Engines(t, m, []string{"fp32", "fp16"})
	bs, err := m.NewBatchStepper(engines["fp32"])
	if err != nil {
		t.Fatal(err)
	}
	other := m.NewSession(engines["fp16"], 8)
	other.Append([]int{1, 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for mismatched session engine")
		}
		if !strings.Contains(r.(string), "different model or engine") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	bs.Step([]*model.Session{other}, []int{3})
}
