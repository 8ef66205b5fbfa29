package model_test

import (
	"fmt"

	"tender/internal/model"
	"tender/internal/tensor"
)

// A Session decodes incrementally: one prefill Append over the prompt,
// then one single-token Append per generated token.
func ExampleModel_NewSession() {
	m := model.New(model.TinyConfig())
	sess := m.NewSession(model.Exact{}, 0)

	logits := sess.Append([]int{1, 2, 3}) // prefill
	tok := model.Greedy(logits.Row(logits.Rows - 1))
	out := []int{tok}
	for len(out) < 3 {
		tok = model.Greedy(sess.Append([]int{tok}).Row(0))
		out = append(out, tok)
	}
	fmt.Println("generated:", len(out), "tokens from", sess.Len(), "cached positions")
	// Output:
	// generated: 3 tokens from 5 cached positions
}

// A PrefixCache turns repeated prompt prefixes into page mounts: the
// donor's KV pages are indexed once and later sessions skip the covered
// prefill entirely — with bit-identical logits.
func ExamplePrefixCache() {
	m := model.New(model.TinyConfig())
	eng := model.Exact{}
	pool := tensor.NewBlockPool(m.Cfg.DModel, tensor.DefaultPageRows, 0)
	cache := model.NewPrefixCache(pool, m.Cfg.Layers, 0)

	prompt := []int{7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}

	// Cold request: prefill everything, then donate the prefix.
	donor := m.NewSessionOn(eng, pool, 0, nil)
	donor.Append(prompt)
	if !cache.Insert(prompt, donor) {
		fmt.Println("insert failed")
		return
	}

	// Repeat request: mount the cached rows, prefill only the remainder.
	e := cache.Acquire(prompt)
	sess := m.NewSessionOn(eng, pool, 0, e)
	fmt.Println("cached rows mounted:", e.Rows(), "of", len(prompt), "prompt tokens")
	sess.Append(prompt[e.Rows():])
	fmt.Println("prefilled tail:", len(prompt)-e.Rows(), "token(s)")

	sess.ReleaseKV()
	cache.Release(e)
	donor.ReleaseKV()
	cache.Flush()
	fmt.Println("pages leaked:", pool.InUse())
	// Output:
	// cached rows mounted: 17 of 18 prompt tokens
	// prefilled tail: 1 token(s)
	// pages leaked: 0
}
