package model

import (
	"fmt"
	"math"

	"tender/internal/tensor"
)

// Session is an incremental-decode view of a decoder Model: it carries a
// per-request KV cache so each new token costs one row of compute per
// matmul site instead of a full-sequence forward. All matmuls route
// through the Engine interface, so Tender, every baseline scheme, and
// exact FP serve through one code path.
//
// Append, Step and Model.Forward run the same block (pass), so a session
// advanced alone or inside a fused pass computes the same values.
//
// A Session is owned by a single request and is not safe for concurrent
// use; different Sessions over the same Model and Engine may run
// concurrently (engines are read-only at inference time).
//
// The engine sees each step as a standalone tensor: row r of a segment is
// absolute position Len()+r, but Engine.MatMul carries no position, so an
// engine whose quantization metadata varies by row position (e.g. Tender
// row chunking calibrated over more rows than one step) would make
// chunked prefill diverge from one-shot prefill. Incremental decode is
// exact for engines that pass the row-independence audit
// (Model.AuditRows) — which engine.BuildEngines requires of every engine
// built with the Serving option; a row-coupled engine (OliVe, or any
// engine quantizing attention) is exact only for the pieces it was given,
// so it is evaluated offline and never served.
type Session struct {
	m    *Model
	eng  Engine
	pool *tensor.BlockPool
	pos  int
	kv   []kvCache
}

// kvCache stores the post-projection key and value rows (pre head-split,
// d-model wide) for one layer.
type kvCache struct {
	k, v *tensor.PagedRows
}

// NewSession returns an empty decode session for m over eng whose KV cache
// draws pages from a private unbounded pool. capHint, if positive, reserves
// pages for that many positions (prompt length + expected new tokens) up
// front, so decoding within it allocates no KV memory; otherwise pages are
// acquired as the cache grows — never the full MaxSeq worst case.
func (m *Model) NewSession(eng Engine, capHint int) *Session {
	return m.NewSessionOn(eng, m.privatePool(capHint), capHint, nil)
}

// privatePool returns an unbounded KV pool for one session, with pages
// reserved for capHint positions (at most MaxSeq).
func (m *Model) privatePool(capHint int) *tensor.BlockPool {
	pool := tensor.NewBlockPool(m.Cfg.DModel, tensor.DefaultPageRows, 0)
	if capHint = min(capHint, m.Cfg.MaxSeq); capHint > 0 {
		pool.Reserve(2 * len(m.Layers) * ((capHint + tensor.DefaultPageRows - 1) / tensor.DefaultPageRows))
	}
	return pool
}

// NewSessionOn returns a decode session whose per-layer K/V stores draw
// pages from pool, which must be d_model wide. capHint, if positive,
// pre-sizes each store's page table for that many positions (at most
// MaxSeq). A non-nil prefix (a pinned entry of a PrefixCache over the same
// pool) is mounted instead of prefilled: every layer's stores start with
// the entry's shared pages, the session's position starts at
// prefix.Rows(), and the first Append must continue the same prompt from
// that position.
//
// Because causal attention makes each cached row depend only on the tokens
// before it, and serving engines quantize rows position-independently, a
// mounted session's logits are bit-identical to a cold session's at every
// step — the prefix hit changes work, never tokens.
func (m *Model) NewSessionOn(eng Engine, pool *tensor.BlockPool, capHint int, prefix *PrefixEntry) *Session {
	if m.Cfg.Arch != Decoder {
		panic("model: sessions require a decoder model")
	}
	return m.sessionOn(eng, pool, capHint, prefix)
}

// sessionOn is NewSessionOn for either architecture: an encoder's session
// is internal to Model.prefill.
func (m *Model) sessionOn(eng Engine, pool *tensor.BlockPool, capHint int, prefix *PrefixEntry) *Session {
	if c := pool.Cols(); c != m.Cfg.DModel {
		panic(fmt.Sprintf("model: KV pool is %d columns wide, model is %d", c, m.Cfg.DModel))
	}
	capHint = min(capHint, m.Cfg.MaxSeq)
	s := &Session{m: m, eng: eng, pool: pool, kv: make([]kvCache, len(m.Layers))}
	for l := range s.kv {
		s.kv[l] = kvCache{k: tensor.NewPagedRows(pool, capHint), v: tensor.NewPagedRows(pool, capHint)}
	}
	if prefix != nil {
		if prefix.cache.pool != pool {
			panic("model: prefix entry is from another pool")
		}
		for l, kv := range s.kv {
			kv.k.MountShared(prefix.k[l], prefix.rows)
			kv.v.MountShared(prefix.v[l], prefix.rows)
		}
		s.pos = prefix.rows
	}
	return s
}

// ReleaseKV empties every layer's KV store and returns its pages to the
// pool. The session must not be used afterwards; the serving scheduler
// calls this when a request finishes or is preempted.
func (s *Session) ReleaseKV() {
	for l := range s.kv {
		s.kv[l].k.Release()
		s.kv[l].v.Release()
	}
}

// KVPagesToGrow returns how many pool pages the session's KV stores would
// acquire appending positions until it holds n: a page per layer per K/V
// for every page of positions started, plus the copy-on-write of a
// mounted prefix's partial last page. This is what a scheduler budgets
// against BlockPool.Free.
func (s *Session) KVPagesToGrow(n int) int {
	need := 0
	for _, kv := range s.kv {
		need += kv.k.PagesToGrow(n) + kv.v.PagesToGrow(n)
	}
	return need
}

// Len returns the number of positions already in the cache.
func (s *Session) Len() int { return s.pos }

// Append runs the incremental block over the next tokens (absolute
// positions Len()..Len()+n-1), extends the KV cache, and returns the
// logits for every appended position (n × vocab) in a fresh matrix the
// caller owns. Appending the whole prompt in one call is the prefill step,
// the pass Model.Forward runs; subsequent single-token calls are decode
// steps. Serving runs Step, which unembeds only each segment's last row;
// Append is the all-rows form the references and tests read.
func (s *Session) Append(tokens []int) *tensor.Matrix {
	p := newPass(s.m, s.eng)
	x := p.forward([]Segment{{s, tokens}})
	logits := tensor.MatMul(x, s.m.Unembed)
	scratch.Put(x)
	return logits
}

// Greedy returns the argmax token of a logits row.
func Greedy(logits []float64) int {
	best := 0
	for i := 1; i < len(logits); i++ {
		if logits[i] > logits[best] {
			best = i
		}
	}
	return best
}

// Sample draws a token from softmax(logits/temp) using u ∈ [0, 1) as the
// inverse-CDF coordinate, so callers control determinism through their own
// RNG. temp <= 0 degrades to Greedy, and so does a positive temperature
// so small that the scaled logits overflow: that is the argmax's limit.
func Sample(logits []float64, temp, u float64) int {
	if temp <= 0 || math.IsInf(logits[Greedy(logits)]/temp, 0) {
		return Greedy(logits)
	}
	p := softmaxVec(logits, temp)
	target := u
	var acc float64
	for i, pv := range p {
		acc += pv
		if target < acc {
			return i
		}
	}
	return len(p) - 1
}
