package serve

import (
	"testing"

	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/workload"
)

// TestServeSpecDecodeBitIdentical: a server routing low-occupancy decode
// through the draft-k-verify path (MaxBatch 1 forces every decode-ready
// iteration onto it) emits exactly the unbatched reference tokens for
// row-independent targets, greedy and sampled, and the speculative
// counters prove the path actually ran.
func TestServeSpecDecodeBitIdentical(t *testing.T) {
	m := model.New(model.TinyConfig())
	draft := identtest.Canon(t, "tender:bits=4,int")
	engines := identtest.Engines(t, m, []string{"fp32", "tender", draft})
	mut := func(cfg *Config) {
		cfg.MaxBatch = 1
		cfg.SpecDraftSpec = draft
		cfg.SpecDraftK = 3
	}
	check := func(t *testing.T, srv *Server) {
		snap := srv.Metrics().Snapshot()
		if snap.SpecPasses == 0 {
			t.Fatal("speculative path never ran a pass")
		}
		if snap.DraftProposedTokens < snap.DraftAcceptedTokens {
			t.Fatalf("accepted %d of %d proposed tokens", snap.DraftAcceptedTokens, snap.DraftProposedTokens)
		}
		if snap.DraftAcceptedTokens > 0 && snap.DraftAcceptanceRate <= 0 {
			t.Fatalf("acceptance rate %g with %d accepted tokens", snap.DraftAcceptanceRate, snap.DraftAcceptedTokens)
		}
	}
	identtest.Matrix{
		Model: m, Engines: engines,
		Schemes: []string{"fp32", "tender"},
		Temps:   []float64{0, 0.8}, SeedBase: 13,
		Reference: unbatchedRef,
		Paths:     []identtest.Path{{Label: "spec", D: servePath(engines, mut, check)}},
	}.Run(t)
}

// TestServeSpecGatesRowCoupledTargets: OliVe's stacked verify pass is not
// row-independent, so a server hosting it with a drafter configured must
// keep olive requests on the plain path — zero speculative passes — while
// still matching the unbatched reference.
func TestServeSpecGatesRowCoupledTargets(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := identtest.Engines(t, m, []string{"olive", "fp32"})
	mut := func(cfg *Config) {
		cfg.MaxBatch = 1
		cfg.SpecDraftSpec = "fp32"
		cfg.SpecDraftK = 4
	}
	check := func(t *testing.T, srv *Server) {
		if snap := srv.Metrics().Snapshot(); snap.SpecPasses != 0 {
			t.Fatalf("row-coupled target took %d speculative passes", snap.SpecPasses)
		}
	}
	identtest.Matrix{
		Model: m, Engines: engines,
		Schemes: []string{"olive"},
		Temps:   []float64{0, 0.8}, SeedBase: 13,
		Reference: unbatchedRef,
		Paths:     []identtest.Path{{Label: "spec-gated", D: servePath(engines, mut, check)}},
	}.Run(t)
}

// TestServeSpecRespectsKVBudget: drafter sessions are charged against
// KVBudgetRows like any other KV. With a budget too tight to ever fund a
// drafter alongside the target, requests silently decode plain — correct
// tokens, zero passes — rather than deadlocking or preempting anyone; a
// roomy budget speculates and still drains every page at the end.
func TestServeSpecRespectsKVBudget(t *testing.T) {
	m := model.New(model.TinyConfig())
	draft := identtest.Canon(t, "tender:bits=4,int")
	engines := identtest.Engines(t, m, []string{"fp32", draft})
	run := func(budget int) func(*Config) {
		return func(cfg *Config) {
			cfg.MaxBatch = 1
			cfg.SpecDraftSpec = draft
			cfg.SpecDraftK = 3
			cfg.KVBudgetRows = budget
			cfg.KVPageRows = 8
		}
	}
	// 13-token prompts emitting 4 tokens peak at 16 KV positions, exactly
	// the tight budget's two pages: the target always fits, a drafter
	// session never does. The roomy budget funds both comfortably.
	prompts := make([][]int, 4)
	newTokens := make([]int, 4)
	for i := range prompts {
		prompts[i] = workload.TokenStream(workload.Wiki, 31+uint64(i), 13, m.Cfg.Vocab)
		newTokens[i] = 4
	}
	tight, roomy := 16, 4096
	for _, tc := range []struct {
		name   string
		budget int
		spec   bool
	}{{"tight-budget-decodes-plain", tight, false}, {"roomy-budget-speculates", roomy, true}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			check := func(t *testing.T, srv *Server) {
				snap := srv.Metrics().Snapshot()
				if tc.spec && snap.SpecPasses == 0 {
					t.Fatal("roomy budget never speculated")
				}
				if !tc.spec && snap.SpecPasses != 0 {
					t.Fatalf("tight budget took %d speculative passes", snap.SpecPasses)
				}
			}
			identtest.Matrix{
				Model: m, Engines: engines,
				Schemes: []string{"fp32"},
				Prompts: prompts, NewTokens: newTokens,
				Temps: []float64{0}, SeedBase: 13,
				Reference: unbatchedRef,
				Paths:     []identtest.Path{{Label: "spec", D: servePath(engines, run(tc.budget), check)}},
			}.Run(t)
		})
	}
}
