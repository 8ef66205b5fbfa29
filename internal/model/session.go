package model

import (
	"fmt"

	"tender/internal/tensor"
)

// Session is an incremental-decode view of a decoder Model: it carries a
// per-request KV cache so each new token costs one row of compute per
// matmul site instead of a full-sequence forward. All matmuls route
// through the same Engine interface as Model.Forward, so Tender, every
// baseline scheme, and exact FP serve through one code path.
//
// Append and BatchStepper.Step run the same incremental block (pass), so
// a session advanced alone or inside a fused batch computes the same
// values.
//
// A Session is owned by a single request and is not safe for concurrent
// use; different Sessions over the same Model and Engine may run
// concurrently (engines are read-only at inference time).
//
// The engine sees each Append as a standalone tensor: row r of a step is
// absolute position Len()+r, but Engine.MatMul carries no position, so an
// engine whose quantization metadata varies by row position (e.g. Tender
// row chunking calibrated over more rows than one step) would make
// chunked prefill diverge from one-shot prefill. Incremental decode is
// exact for engines whose per-row treatment is position-independent —
// which engine.BuildEngines guarantees for every scheme built with the
// Serving option — and whose activation rows are quantized independently
// (RowIndependentEngine); a row-coupled engine (OliVe) is exact only for
// the Append calls it was given, which is why the serving scheduler feeds
// it the whole prompt at once and then one token per call.
type Session struct {
	m   *Model
	eng Engine
	pos int
	kv  []kvCache
}

// KVStore is the append-only row store a Session keeps per layer for its
// cached keys and values. Two implementations exist: the contiguous
// tensor.RowBuffer (one growing slab per store, the reference) and the
// paged tensor.PagedRows (fixed-size pages from a shared tensor.BlockPool,
// what the serving scheduler uses so KV memory is bounded by a pool budget
// instead of worst-case sequence length). Attention reads rows through Row
// and Span only, so both implementations feed the exact same values — and
// the same accumulation order — into every matmul: decode output is
// bit-identical across stores.
type KVStore interface {
	// Rows returns the number of rows appended so far.
	Rows() int
	// Cols returns the row width (the model's d_model).
	Cols() int
	// AppendRow appends one row of length Cols.
	AppendRow(row []float64)
	// AppendRows appends every row of m.
	AppendRows(m *tensor.Matrix)
	// Row returns row r aliasing the store's storage.
	Row(r int) []float64
	// Span returns the longest contiguous row-major run starting at row r
	// (aliasing storage) and its length in rows; iterating spans visits
	// every row in order without copying.
	Span(r int) ([]float64, int)
	// Release empties the store and returns its memory (pages to their
	// pool, slabs to the garbage collector).
	Release()
}

// SharedKVStore is a KVStore whose pages can be shared across stores:
// tensor.PagedRows implements it over refcounted tensor.BlockPool pages.
// SharePages hands out retained page references covering the store's first
// rows; MountShared seeds an empty store with such references, serving the
// mounted rows read-only and copy-on-writing a partially filled last page
// on append. It is the substrate PrefixCache builds shared-prompt KV reuse
// on; the contiguous RowBuffer deliberately does not implement it.
type SharedKVStore interface {
	KVStore
	// SharePages returns one retained page reference per page covering the
	// first rows rows; each must eventually be released to the pool.
	SharePages(rows int) []*tensor.Page
	// MountShared mounts rows rows of shared pages into an empty store,
	// taking its own references.
	MountShared(pages []*tensor.Page, rows int)
}

// kvCache stores the post-projection key and value rows (pre head-split,
// d-model wide) for one layer.
type kvCache struct {
	k, v KVStore
}

// NewSession returns an empty decode session for m over eng backed by
// contiguous per-session KV buffers. capHint, if positive, preallocates
// the KV cache for that many positions (prompt length + expected new
// tokens); otherwise one page worth of rows is reserved — never the full
// MaxSeq worst case — and the cache grows on demand either way.
func (m *Model) NewSession(eng Engine, capHint int) *Session {
	if capHint <= 0 {
		capHint = tensor.DefaultPageRows
	}
	if capHint > m.Cfg.MaxSeq {
		capHint = m.Cfg.MaxSeq
	}
	return m.NewSessionWithKV(eng, func() KVStore {
		return tensor.NewRowBuffer(m.Cfg.DModel, capHint)
	})
}

// NewSessionWithKV returns an empty decode session whose per-layer KV
// stores come from newStore (called twice per layer, for keys and values).
// Stores must be empty and Cols() == d_model. This is how the serving
// layer mounts sessions on a shared paged block pool; NewSession is the
// contiguous shorthand.
func (m *Model) NewSessionWithKV(eng Engine, newStore func() KVStore) *Session {
	if m.Cfg.Arch != Decoder {
		panic("model: sessions require a decoder model")
	}
	s := &Session{m: m, eng: eng, kv: make([]kvCache, len(m.Layers))}
	for l := range s.kv {
		s.kv[l] = kvCache{k: newStore(), v: newStore()}
		if c := s.kv[l].k.Cols(); c != m.Cfg.DModel {
			panic(fmt.Sprintf("model: KV store is %d columns wide, model is %d", c, m.Cfg.DModel))
		}
	}
	return s
}

// NewSessionWithPrefix returns a decode session that mounts a cached
// prompt prefix instead of prefilling it: every layer's K/V store starts
// with e's shared pages, the session's position starts at e.Rows(), and
// the first Append must continue the same prompt from that position. The
// stores newStore returns must implement SharedKVStore (paged stores over
// the entry's pool). A nil entry degrades to NewSessionWithKV.
//
// Because causal attention makes each cached row depend only on the tokens
// before it, and serving engines quantize rows position-independently, a
// mounted session's logits are bit-identical to a cold session's at every
// step — the prefix hit changes work, never tokens.
func (m *Model) NewSessionWithPrefix(eng Engine, newStore func() KVStore, e *PrefixEntry) *Session {
	s := m.NewSessionWithKV(eng, newStore)
	if e == nil {
		return s
	}
	for l := range s.kv {
		ks, ok := s.kv[l].k.(SharedKVStore)
		vs, ok2 := s.kv[l].v.(SharedKVStore)
		if !ok || !ok2 {
			panic("model: NewSessionWithPrefix requires SharedKVStore KV stores")
		}
		ks.MountShared(e.k[l], e.rows)
		vs.MountShared(e.v[l], e.rows)
	}
	s.pos = e.rows
	return s
}

// ReleaseKV empties every layer's KV store and returns its memory — pages
// back to their pool for a paged session. The session must not be used
// afterwards; the serving scheduler calls this when a request finishes or
// is preempted.
func (s *Session) ReleaseKV() {
	for l := range s.kv {
		s.kv[l].k.Release()
		s.kv[l].v.Release()
	}
}

// Len returns the number of positions already in the cache.
func (s *Session) Len() int { return s.pos }

// Model returns the session's model.
func (s *Session) Model() *Model { return s.m }

// Append runs the incremental block over the next tokens (absolute
// positions Len()..Len()+n-1), extends the KV cache, and returns the
// logits for the appended positions (n × vocab) in a fresh matrix the
// caller owns. Appending the whole prompt in one call is the prefill step
// and is bit-identical to Model.Forward; subsequent single-token calls are
// decode steps.
func (s *Session) Append(tokens []int) *tensor.Matrix {
	if len(tokens) == 0 {
		panic("model: Session.Append with no tokens")
	}
	p := newPass(s.m, s.eng)
	x := p.forward([]segment{{s, tokens}})
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
// RNG. temp <= 0 degrades to Greedy.
func Sample(logits []float64, temp, u float64) int {
	if temp <= 0 {
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
