// Package identtest is the shared bit-identity harness. Every decode
// path the repo ships — per-request contiguous, paged KV (whole or
// chunked prefill), fused batched (model.BatchStepper), and the serving
// stack's wrappers around them — must emit exactly the
// tokens of the plain sequential reference, for every registry scheme,
// greedy and sampled. Test packages declare a Matrix of schemes ×
// temperatures × paths and let Run drive the comparisons instead of
// hand-rolling the same nested loops; packages with their own decode
// entry points (internal/serve) plug in custom Decoders and reuse Equal.
//
// Conventions every Decoder must follow so outputs are comparable:
// request i samples with tensor.NewRNG(SeedBase+i), drawing exactly one
// Float64 per emitted token in emission order; the first token comes
// from the prefill logits' last row; recorded logits (optional) carry
// one row per emitted token — the row the token was chosen from.
package identtest

import (
	"fmt"
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// Output is one decode path's result over a Matrix case: per-request
// token streams and, for paths that expose them, the per-token logit
// rows (row j = the logits token j was chosen from). Logits may be nil —
// token-only paths like the serving stack — in which case Equal compares
// tokens alone.
type Output struct {
	Tokens [][]int
	Logits []*tensor.Matrix
}

// Case is the unit of work handed to a Decoder: one scheme × temperature
// cell of the matrix.
type Case struct {
	Model     *model.Model
	Scheme    string // canonical engine spec, for paths that route by name
	Engine    model.Engine
	Prompts   [][]int
	NewTokens []int // per-request emission budget, same indexing as Prompts
	Temp      float64
	SeedBase  uint64
}

// Decoder runs one decode path over every request of a case.
type Decoder func(t *testing.T, c Case) Output

// Path labels a Decoder under test.
type Path struct {
	Label string
	D     Decoder
}

// Matrix declares a bit-identity sweep: for each scheme × temperature,
// Reference produces the ground truth and every Path must match it.
// Zero-value fields get defaults: staggered Wiki prompts whose lengths
// (and emission budgets) differ per request so batch members finish at
// different steps, greedy-only temps, and the plain per-request
// contiguous reference.
type Matrix struct {
	Model     *model.Model
	Engines   map[string]model.Engine // canonical spec → engine
	Schemes   []string
	Temps     []float64
	Prompts   [][]int
	NewTokens []int
	MaxNew    int // default emission budget ceiling (default 6)
	SeedBase  uint64
	Reference Decoder
	Paths     []Path
}

// Engines builds one serving-calibrated engine per spec, keyed by
// canonical spec string — the configuration every identity suite uses.
func Engines(t *testing.T, m *model.Model, names []string) map[string]model.Engine {
	t.Helper()
	engines, err := engine.BuildEngines(m, names, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 32, Serving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engines
}

// Canon resolves a spec to its canonical string (the Engines map key).
func Canon(t *testing.T, name string) string {
	t.Helper()
	key, err := engine.Canonical(name)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// Prompts returns n deterministic prompts of differing lengths so
// per-request position offsets differ across a batch.
func Prompts(m *model.Model, n int, seed uint64) [][]int {
	prompts := make([][]int, n)
	for i := range prompts {
		prompts[i] = workload.TokenStream(workload.Wiki, seed+uint64(i), 3+2*i, m.Cfg.Vocab)
	}
	return prompts
}

// Run drives the matrix: scheme × temperature subtests, each comparing
// every path's Output against the reference's.
func (mx Matrix) Run(t *testing.T) {
	if mx.MaxNew == 0 {
		mx.MaxNew = 6
	}
	if mx.Prompts == nil {
		mx.Prompts = Prompts(mx.Model, 4, 31)
	}
	if mx.NewTokens == nil {
		mx.NewTokens = make([]int, len(mx.Prompts))
		for i := range mx.NewTokens {
			// Stagger budgets so batched paths shrink mid-decode; keep at
			// least 3 tokens so every request decodes past its prefill token.
			mx.NewTokens[i] = mx.MaxNew - i%3
			if mx.NewTokens[i] < 3 {
				mx.NewTokens[i] = 3
			}
		}
	}
	if len(mx.Temps) == 0 {
		mx.Temps = []float64{0}
	}
	if mx.Reference == nil {
		mx.Reference = PlainDecode
	}
	for _, name := range mx.Schemes {
		key := Canon(t, name)
		eng, ok := mx.Engines[key]
		if !ok {
			t.Fatalf("identtest: no engine for %q (canonical %q)", name, key)
		}
		for _, temp := range mx.Temps {
			label := "greedy"
			if temp > 0 {
				label = fmt.Sprintf("temp=%.1f", temp)
			}
			c := Case{
				Model: mx.Model, Scheme: key, Engine: eng,
				Prompts: mx.Prompts, NewTokens: mx.NewTokens,
				Temp: temp, SeedBase: mx.SeedBase,
			}
			t.Run(name+"/"+label, func(t *testing.T) {
				ref := mx.Reference(t, c)
				for _, p := range mx.Paths {
					t.Run(p.Label, func(t *testing.T) {
						Equal(t, p.Label, p.D(t, c), ref)
					})
				}
			})
		}
	}
}

// Equal fails the test unless got matches want token for token — and,
// when both sides recorded logits, bit for bit on every logit row.
func Equal(t *testing.T, label string, got, want Output) {
	t.Helper()
	if len(got.Tokens) != len(want.Tokens) {
		t.Fatalf("%s: %d request outputs, want %d", label, len(got.Tokens), len(want.Tokens))
	}
	for i := range want.Tokens {
		if len(got.Tokens[i]) != len(want.Tokens[i]) {
			t.Fatalf("%s: request %d emitted %d tokens, want %d",
				label, i, len(got.Tokens[i]), len(want.Tokens[i]))
		}
		for j := range want.Tokens[i] {
			if got.Tokens[i][j] != want.Tokens[i][j] {
				t.Fatalf("%s: request %d token %d: got %d, want %d",
					label, i, j, got.Tokens[i][j], want.Tokens[i][j])
			}
		}
	}
	if got.Logits == nil || want.Logits == nil {
		return
	}
	for i := range want.Logits {
		g, w := got.Logits[i], want.Logits[i]
		if g == nil || w == nil {
			continue
		}
		if g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s: request %d logits %dx%d, want %dx%d", label, i, g.Rows, g.Cols, w.Rows, w.Cols)
		}
		if d := tensor.MaxAbsDiff(g, w); d != 0 {
			t.Fatalf("%s: request %d logits differ by %g", label, i, d)
		}
	}
}

func choose(row []float64, temp float64, rng *tensor.RNG) int {
	if temp > 0 {
		return model.Sample(row, temp, rng.Float64())
	}
	return model.Greedy(row)
}

// decodeSessions is the per-request autoregressive loop shared by the
// contiguous and paged paths: one session per request, the prompt
// appended in chunk-row pieces (chunk <= 0: whole), then one Append per
// token, logits recorded.
func decodeSessions(c Case, chunk int, newSession func() *model.Session) Output {
	out := Output{
		Tokens: make([][]int, len(c.Prompts)),
		Logits: make([]*tensor.Matrix, len(c.Prompts)),
	}
	for i, prompt := range c.Prompts {
		rng := tensor.NewRNG(c.SeedBase + uint64(i))
		s := newSession()
		step := chunk
		if step <= 0 {
			step = len(prompt)
		}
		var logits *tensor.Matrix
		for at := 0; at < len(prompt); at += step {
			logits = s.Append(prompt[at:min(at+step, len(prompt))])
		}
		rec := tensor.New(c.NewTokens[i], c.Model.Cfg.Vocab)
		row := logits.Row(logits.Rows - 1)
		copy(rec.Row(0), row)
		toks := []int{choose(row, c.Temp, rng)}
		for len(toks) < c.NewTokens[i] {
			row = s.Append([]int{toks[len(toks)-1]}).Row(0)
			copy(rec.Row(len(toks)), row)
			toks = append(toks, choose(row, c.Temp, rng))
		}
		s.ReleaseKV()
		out.Tokens[i] = toks
		out.Logits[i] = rec
	}
	return out
}

// PlainDecode is the reference path: per-request contiguous sessions,
// one Append per token.
func PlainDecode(t *testing.T, c Case) Output {
	return decodeSessions(c, 0, func() *model.Session {
		return c.Model.NewSession(c.Engine, 0)
	})
}

// paged runs decode over paged KV sessions drawing from a fresh unbounded
// pool with the given page size, and fails the test if any page outlives
// ReleaseKV.
func paged(t *testing.T, c Case, pageRows int, decode func(newSession func() *model.Session) Output) Output {
	t.Helper()
	pool := tensor.NewBlockPool(c.Model.Cfg.DModel, pageRows, 0)
	out := decode(func() *model.Session {
		return c.Model.NewSessionWithKV(c.Engine, func() model.KVStore {
			return tensor.NewPagedRows(pool, 0)
		})
	})
	if n := pool.InUse(); n != 0 {
		t.Fatalf("paged decode leaked %d pages after ReleaseKV", n)
	}
	return out
}

// PagedDecode decodes per request on paged KV sessions.
func PagedDecode(pageRows int) Decoder {
	return func(t *testing.T, c Case) Output {
		return paged(t, c, pageRows, func(newSession func() *model.Session) Output {
			return decodeSessions(c, 0, newSession)
		})
	}
}

// PagedChunkedDecode is PagedDecode with the prompt appended in
// chunk-row pieces: every piece after the first is a multi-row append to
// a session that already holds rows, the case chunked prefill hits.
func PagedChunkedDecode(pageRows, chunk int) Decoder {
	return func(t *testing.T, c Case) Output {
		return paged(t, c, pageRows, func(newSession func() *model.Session) Output {
			return decodeSessions(c, chunk, newSession)
		})
	}
}

// fusedDecode steps all live requests together through one BatchStepper;
// staggered NewTokens shrink the group mid-decode, covering the member-
// retires case the scheduler hits constantly.
func fusedDecode(t *testing.T, c Case, newSession func() *model.Session) Output {
	t.Helper()
	bs, err := c.Model.NewBatchStepper(c.Engine)
	if err != nil {
		t.Fatalf("NewBatchStepper(%s): %v", c.Scheme, err)
	}
	n := len(c.Prompts)
	out := Output{Tokens: make([][]int, n), Logits: make([]*tensor.Matrix, n)}
	sess := make([]*model.Session, n)
	rngs := make([]*tensor.RNG, n)
	last := make([]int, n)
	for i, prompt := range c.Prompts {
		rngs[i] = tensor.NewRNG(c.SeedBase + uint64(i))
		sess[i] = newSession()
		logits := sess[i].Append(prompt)
		out.Logits[i] = tensor.New(c.NewTokens[i], c.Model.Cfg.Vocab)
		row := logits.Row(logits.Rows - 1)
		copy(out.Logits[i].Row(0), row)
		last[i] = choose(row, c.Temp, rngs[i])
		out.Tokens[i] = []int{last[i]}
	}
	for {
		var live []int
		for i := range sess {
			if len(out.Tokens[i]) < c.NewTokens[i] {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			break
		}
		group := make([]*model.Session, len(live))
		toks := make([]int, len(live))
		for gi, i := range live {
			group[gi] = sess[i]
			toks[gi] = last[i]
		}
		logits := bs.Step(group, toks)
		for gi, i := range live {
			row := logits.Row(gi)
			copy(out.Logits[i].Row(len(out.Tokens[i])), row)
			last[i] = choose(row, c.Temp, rngs[i])
			out.Tokens[i] = append(out.Tokens[i], last[i])
		}
	}
	for _, s := range sess {
		s.ReleaseKV()
	}
	return out
}

// FusedDecode is the fused batched path over contiguous sessions.
func FusedDecode(t *testing.T, c Case) Output {
	return fusedDecode(t, c, func() *model.Session {
		return c.Model.NewSession(c.Engine, 0)
	})
}

// PagedFusedDecode is the fused batched path over paged KV sessions —
// the serving scheduler's steady-state configuration — with the same
// leak check as PagedDecode.
func PagedFusedDecode(pageRows int) Decoder {
	return func(t *testing.T, c Case) Output {
		return paged(t, c, pageRows, func(newSession func() *model.Session) Output {
			return fusedDecode(t, c, newSession)
		})
	}
}
