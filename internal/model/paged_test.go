package model_test

import (
	"runtime"
	"testing"

	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// TestPagedBitIdentical is the page-size invariant: for every registry
// scheme, sessions on 8-row pages produce logits bit-identical to the
// PlainDecode reference on default 16-row pages — per request, with
// chunked prefill, and through the fused batched path — for prompt
// lengths straddling page boundaries (page−1, page, page+1, multi-page)
// and decode runs crossing several more pages. Every path also asserts
// its pool drains after ReleaseKV.
func TestPagedBitIdentical(t *testing.T) {
	const pageRows = 8
	m := model.New(model.TinyConfig())
	names := servable("tender:int", "uniform:gran=tensor",
		"fp16:kernel=blocked", "fp32:kernel=blocked")
	prompts := make([][]int, 0, 4)
	for _, plen := range []int{pageRows - 1, pageRows, pageRows + 1, 2*pageRows + 3} {
		prompts = append(prompts, workload.TokenStream(workload.Wiki, 31+uint64(plen), plen, m.Cfg.Vocab))
	}
	identtest.Matrix{
		Model: m, Engines: identtest.Engines(t, m, names),
		Schemes: names,
		Prompts: prompts,
		// Decode past another page boundary on every request.
		NewTokens: []int{pageRows + 2, pageRows + 2, pageRows + 2, pageRows + 2},
		Paths: []identtest.Path{
			{Label: "paged", D: identtest.PerRequest(pageRows, 0)},
			{Label: "paged-fused", D: identtest.Fused(pageRows)},
			// 3-row chunks straddle the 8-row page boundaries.
			{Label: "paged-chunked", D: identtest.PerRequest(pageRows, 3)},
		},
	}.Run(t)
	// Olive cannot serve, but its paged sessions must still match.
	identtest.Matrix{
		Model: m, Engines: offlineEngines(t, m, []string{"olive"}, false),
		Schemes:   []string{"olive"},
		Prompts:   prompts,
		NewTokens: []int{pageRows + 2, pageRows + 2, pageRows + 2, pageRows + 2},
		Paths: []identtest.Path{
			{Label: "paged", D: identtest.PerRequest(pageRows, 0)},
		},
	}.Run(t)
}

// TestPagedResumeBitIdentical validates the preemption recipe at the model
// level: decode partway, release the paged session's KV entirely, rebuild
// a fresh paged session by re-prefilling prompt + generated tokens, and
// continue — the remaining tokens must match an uninterrupted run exactly.
func TestPagedResumeBitIdentical(t *testing.T) {
	const pageRows = 8
	m := model.New(model.TinyConfig())
	engines := identtest.Engines(t, m, []string{"tender"})
	eng := engines["tender"]
	prompt := workload.TokenStream(workload.PTB, 3, pageRows+3, m.Cfg.Vocab)
	const total, cut = 12, 5

	decode := func(sess *model.Session) []int {
		logits := sess.Append(prompt)
		out := make([]int, 0, total)
		tok := model.Greedy(logits.Row(logits.Rows - 1))
		for len(out) < total {
			out = append(out, tok)
			if len(out) == total {
				break
			}
			tok = model.Greedy(sess.Append([]int{tok}).Row(0))
		}
		return out
	}
	want := decode(m.NewSession(eng, 0))

	pool := tensor.NewBlockPool(m.Cfg.DModel, pageRows, 0)
	sess := m.NewSessionOn(eng, pool, 0, nil)
	logits := sess.Append(prompt)
	out := make([]int, 0, total)
	out = append(out, model.Greedy(logits.Row(logits.Rows-1)))
	for len(out) < cut {
		out = append(out, model.Greedy(sess.Append([]int{out[len(out)-1]}).Row(0)))
	}
	// Preempt: drop every page, then resume on a fresh session by
	// re-prefilling the retained prompt + generated tokens (all but the
	// last emitted token, which the next decode step appends as usual).
	sess.ReleaseKV()
	if pool.InUse() != 0 {
		t.Fatalf("%d pages still held after preemption", pool.InUse())
	}
	sess = m.NewSessionOn(eng, pool, 0, nil)
	seq := append(append([]int{}, prompt...), out[:len(out)-1]...)
	sess.Append(seq) // resume prefill; logits discarded, tokens already emitted
	for len(out) < total {
		out = append(out, model.Greedy(sess.Append([]int{out[len(out)-1]}).Row(0)))
	}
	identtest.Equal(t, "resumed decode",
		identtest.Output{Tokens: [][]int{out}}, identtest.Output{Tokens: [][]int{want}})
}

// TestSessionNoMaxSeqPrealloc is the lazy-allocation regression guard:
// NewSession with capHint <= 0 must reserve no pages up front, let alone
// the MaxSeq worst case. The config's full KV footprint is ~50 MiB, so a
// preallocating regression trips the byte bound by orders of magnitude.
func TestSessionNoMaxSeqPrealloc(t *testing.T) {
	cfg := model.TinyConfig()
	cfg.MaxSeq = 1 << 16
	cfg.Name = "prealloc-guard"
	m := model.New(cfg)
	full := uint64(2*cfg.Layers*cfg.MaxSeq*cfg.DModel) * 8 // bytes if MaxSeq were preallocated
	for _, capHint := range []int{0, -1} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sess := m.NewSession(model.Exact{}, capHint)
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		if grew > full/64 {
			t.Fatalf("capHint=%d: session creation allocated %d bytes (MaxSeq prealloc would be %d)", capHint, grew, full)
		}
		_ = sess
	}
}
