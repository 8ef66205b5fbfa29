package model

import (
	"errors"
	"fmt"
	"math"

	"tender/internal/tensor"
)

// scratch recycles every intermediate of the incremental block. An Arena is
// safe for concurrent use, so passes on different goroutines share it; in
// steady state a decode step draws every matrix from it and performs no
// heap allocations.
var scratch = tensor.NewArena()

// Segment is one session's share of a Step: the tokens appended to S at
// positions S.Len() .. S.Len()+len(Tokens)-1 — a prefill chunk of any
// length, a resumed tail, or one decode token. The segments of a pass
// occupy consecutive rows of its stacked activations.
type Segment struct {
	S      *Session
	Tokens []int
}

// pass is the transformer: the one block every path runs. Step is a pass
// over any mix of segments; Session.Append, Model.Forward,
// Model.ClassifyLogits and Model.Record are passes over one. Weight sites
// run one engine call over all stacked rows; attention runs per segment
// against that session's cache — causal in a decoder, bidirectional in an
// encoder, whose one segment is the whole sequence on an empty session.
type pass struct {
	m        *Model
	eng      Engine
	into     EngineInto // nil when the engine has no Into fast path
	exactAtt bool       // act-act sites run the exact GEMM → direct loops
	bidir    bool       // encoder: every row attends to every key
}

func newPass(m *Model, eng Engine) pass {
	p := pass{m: m, eng: eng, bidir: m.Cfg.Arch == Encoder}
	p.into, _ = eng.(EngineInto)
	if ea, ok := eng.(exactActAct); ok {
		p.exactAtt = ea.ExactActAct()
	}
	return p
}

// forward appends every segment's tokens to its session and returns the
// final-LayerNormed hidden rows, stacked in segment order. The result is a
// scratch matrix: the caller unembeds it and puts it back.
func (p *pass) forward(segs []Segment) *tensor.Matrix {
	m := p.m
	rows := 0
	for _, sg := range segs {
		n := len(sg.Tokens)
		if n == 0 {
			panic("model: empty segment")
		}
		if sg.S.pos+n > m.Cfg.MaxSeq {
			panic(fmt.Sprintf("model: session length %d+%d exceeds max %d", sg.S.pos, n, m.Cfg.MaxSeq))
		}
		for _, t := range sg.Tokens {
			if t < 0 || t >= m.Cfg.Vocab {
				panic(fmt.Sprintf("model: token %d out of vocab", t))
			}
		}
		rows += n
	}
	x := scratch.GetUninit(rows, m.Cfg.DModel)
	r := 0
	for _, sg := range segs {
		for i, t := range sg.Tokens {
			row := x.Row(r)
			copy(row, m.Embed.Row(t))
			pos := m.Pos.Row(sg.S.pos + i)
			for c := range row {
				row[c] += pos[c]
			}
			r++
		}
	}
	for l := range m.Layers {
		p.block(l, segs, x)
	}
	for _, sg := range segs {
		sg.S.pos += len(sg.Tokens)
	}
	tensor.LayerNormRows(x, m.LNFGain, m.LNFBias)
	return x
}

// block runs one Transformer block (pre-LN residual structure) in place
// over the stacked segments, appending their keys and values to each
// session's cache before attending against it.
func (p *pass) block(l int, segs []Segment, x *tensor.Matrix) {
	m := p.m
	lay := &m.Layers[l]
	rows := x.Rows
	d := m.Cfg.DModel

	// --- Attention sub-layer ---
	h := scratch.GetUninit(rows, d)
	copy(h.Data, x.Data)
	tensor.LayerNormRows(h, lay.LN1Gain, lay.LN1Bias)
	xq := p.siteMatMul(Site{l, KindQ, -1}, h, lay.WQ)
	xk := p.siteMatMul(Site{l, KindK, -1}, h, lay.WK)
	xv := p.siteMatMul(Site{l, KindV, -1}, h, lay.WV)
	scratch.Put(h)
	attnOut := scratch.Get(rows, d)
	r := 0
	for _, sg := range segs {
		n := len(sg.Tokens)
		kv := &sg.S.kv[l]
		for i := r; i < r+n; i++ {
			kv.k.AppendRow(xk.Row(i))
			kv.v.AppendRow(xv.Row(i))
		}
		p.attend(l, sg.S, xq, attnOut, r, n)
		r += n
	}
	p.releaseSite(xq)
	p.releaseSite(xk)
	p.releaseSite(xv)
	xo := p.siteMatMul(Site{l, KindOut, -1}, attnOut, lay.WO)
	scratch.Put(attnOut)
	tensor.AddInPlace(x, xo)
	p.releaseSite(xo)

	// --- Feed-forward sub-layer ---
	h = scratch.GetUninit(rows, d)
	copy(h.Data, x.Data)
	tensor.LayerNormRows(h, lay.LN2Gain, lay.LN2Bias)
	f := p.siteMatMul(Site{l, KindFC1, -1}, h, lay.WFC1)
	scratch.Put(h)
	if m.Cfg.UseGELU {
		tensor.GELU(f)
	} else {
		tensor.ReLU(f)
	}
	f2 := p.siteMatMul(Site{l, KindFC2, -1}, f, lay.WFC2)
	p.releaseSite(f)
	tensor.AddInPlace(x, f2)
	p.releaseSite(f2)
}

// attend writes rows [r, r+n) of the attention output for one segment of
// session s, whose cache already holds those rows' keys and values: row
// r+i is the query at absolute position s.pos+i. In a decoder it sees keys
// 0..s.pos+i; in an encoder, whose segment is the whole sequence, every
// key.
func (p *pass) attend(l int, s *Session, xq, out *tensor.Matrix, r, n int) {
	m := p.m
	heads := m.Cfg.Heads
	dh := m.Cfg.HeadDim()
	d := m.Cfg.DModel
	invSqrt := 1 / math.Sqrt(float64(dh))
	kst, vst := s.kv[l].k, s.kv[l].v
	seq := kst.Rows()
	// Row i sees keys [0, vis0+grow*i): its causal horizon s.pos+i+1 in a
	// decoder, every key in an encoder. Either way the first row that sees
	// key base is max(0, base+1-vis0).
	vis0, grow := s.pos+1, 1
	if p.bidir {
		vis0, grow = seq, 0
	}

	if p.exactAtt {
		// The engine's act-act sites are the exact GEMM, so score and
		// value products are computed straight off the cache spans with
		// tensor.MatMul's per-element accumulation order (k ascending with
		// zero-skip for scores, keys ascending with zero-skip for values) —
		// bit-identical, no per-head copies. Each cache page is read once
		// per head for all the segment's rows. Keys past a row's causal
		// horizon are never scored: under the causal mask they would be
		// -Inf, add an exact 0 to the softmax sum and be zero-skipped by
		// the value product.
		sc := scratch.GetUninit(n, seq) // row i uses its first vis0+grow*i columns
		for hd := 0; hd < heads; hd++ {
			lo := hd * dh
			for i := 0; i < n; i++ {
				clear(sc.Row(i)[:vis0+grow*i])
			}
			for base := 0; base < seq; {
				data, run := kst.Span(base)
				for i := max(0, base+1-vis0); i < n; i++ {
					srow := sc.Row(i)[base:]
					qrow := xq.Row(r + i)[lo : lo+dh]
					keys := min(run, vis0+grow*i-base)
					for k, av := range qrow {
						if av == 0 {
							continue
						}
						col := lo + k
						for j := 0; j < keys; j++ {
							srow[j] += av * data[j*d+col]
						}
					}
				}
				base += run
			}
			for i := 0; i < n; i++ {
				vis := vis0 + grow*i
				score := tensor.Matrix{Rows: 1, Cols: vis, Data: sc.Row(i)[:vis]}
				score.Scale(invSqrt)
				tensor.SoftmaxRows(&score)
			}
			for base := 0; base < seq; {
				data, run := vst.Span(base)
				for i := max(0, base+1-vis0); i < n; i++ {
					srow := sc.Row(i)[base:]
					o := out.Row(r + i)[lo : lo+dh]
					keys := min(run, vis0+grow*i-base)
					for k := 0; k < keys; k++ {
						sv := srow[k]
						if sv == 0 {
							continue
						}
						for j, vv := range data[k*d+lo : k*d+lo+dh] {
							o[j] += sv * vv
						}
					}
				}
				base += run
			}
		}
		scratch.Put(sc)
		return
	}

	// Quantized attention (QuantActAct engines and the calibration
	// Recorder): materialize the per-head operands of the segment's n rows
	// against the whole cache and route both attention sites through the
	// engine.
	qh := scratch.GetUninit(n, dh)
	khT := scratch.GetUninit(dh, seq)
	vh := scratch.GetUninit(seq, dh)
	for hd := 0; hd < heads; hd++ {
		lo, hi := hd*dh, (hd+1)*dh
		for i := 0; i < n; i++ {
			copy(qh.Row(i), xq.Row(r + i)[lo:hi])
		}
		for j := 0; j < seq; j++ {
			for c, v := range kst.Row(j)[lo:hi] {
				khT.Data[c*seq+j] = v
			}
			copy(vh.Row(j), vst.Row(j)[lo:hi])
		}
		score := p.eng.MatMul(Site{l, KindScore, hd}, qh, khT)
		score.Scale(invSqrt)
		if !p.bidir {
			tensor.CausalMaskOffsetInPlace(score, s.pos)
		}
		tensor.SoftmaxRows(score)
		av := p.eng.MatMul(Site{l, KindValue, hd}, score, vh)
		for i := 0; i < n; i++ {
			copy(out.Row(r + i)[lo:hi], av.Row(i))
		}
	}
	scratch.Put(qh)
	scratch.Put(khT)
	scratch.Put(vh)
}

// siteMatMul runs one weight site over the stacked rows, through the
// engine's Into fast path into a scratch matrix when available.
func (p *pass) siteMatMul(site Site, x, w *tensor.Matrix) *tensor.Matrix {
	if p.into != nil {
		out := scratch.GetUninit(x.Rows, w.Cols)
		p.into.MatMulInto(site, x, w, out)
		return out
	}
	return p.eng.MatMul(site, x, w)
}

// releaseSite returns a siteMatMul result to scratch when the pass owns
// it; engine-allocated results are left to the garbage collector.
func (p *pass) releaseSite(m *tensor.Matrix) {
	if p.into != nil {
		scratch.Put(m)
	}
}

// weightSiteKinds are the matmul sites a pass runs over its stacked rows.
var weightSiteKinds = [...]SiteKind{KindQ, KindK, KindV, KindOut, KindFC1, KindFC2}

// ErrRowCoupled is the sentinel every RowCoupledError matches (errors.Is).
var ErrRowCoupled = errors.New("engine is row-coupled")

// RowCoupledError reports an engine that fails the row-independence audit:
// Spec names the engine and Site is the first site, in audit order, that
// it does not declare row-independent.
type RowCoupledError struct {
	Spec string
	Site Site
}

func (e *RowCoupledError) Error() string {
	return fmt.Sprintf("engine %q is row-coupled at site %v: a row's result would depend on the rows sharing its call, so chunked prefill, prefix hits and shared steps could change its tokens", e.Spec, e.Site)
}

// Unwrap makes every RowCoupledError match ErrRowCoupled.
func (e *RowCoupledError) Unwrap() error { return ErrRowCoupled }

// AuditRows is the row-independence audit, the one rule for what may
// serve: it walks every matmul site of the model — each layer's weight
// sites and the score and value sites of every head — and returns nil when
// eng implements RowIndependentEngine and declares them all
// row-independent, else a *RowCoupledError for spec naming the first site
// that fails (an engine without the interface fails at its first site).
// Only an engine that passes may stack several sessions' rows into one
// pass (Step) or re-chunk a prefill (chunked prefill, a PrefixCache hit)
// bit-identically.
func (m *Model) AuditRows(spec string, eng Engine) error {
	rie, ok := eng.(RowIndependentEngine)
	if !ok {
		return &RowCoupledError{spec, Site{0, KindQ, -1}}
	}
	for l := 0; l < m.Cfg.Layers; l++ {
		for _, kind := range weightSiteKinds {
			if site := (Site{l, kind, -1}); !rie.RowIndependentMatMul(site) {
				return &RowCoupledError{spec, site}
			}
		}
		for h := 0; h < m.Cfg.Heads; h++ {
			for _, kind := range [...]SiteKind{KindScore, KindValue} {
				if site := (Site{l, kind, h}); !rie.RowIndependentMatMul(site) {
					return &RowCoupledError{spec, site}
				}
			}
		}
	}
	return nil
}

// RowIndependent reports whether eng passes AuditRows.
func (m *Model) RowIndependent(eng Engine) bool { return m.AuditRows("", eng) == nil }

// Step appends every segment's tokens to its session in one forward pass
// and writes the logits of each segment's last token into the matching row
// of logits (len(segs) × vocab, caller-owned): segment i's rows are
// stacked into one activation matrix with the other segments', every
// weight site runs one Engine call over them all, and attention stays per
// session against its own KV cache and position offset. Only the rows a
// caller reads are unembedded. Step keeps no state, so concurrent calls on
// disjoint sessions may share an engine; with an EngineInto engine and a
// reused segs slice and logits matrix, steady-state decode performs no heap
// allocations.
//
// Each session's logits are bit-identical to appending its segment alone
// (Session.Append) as long as the engine passes AuditRows; Step panics
// when several sessions would share a pass on an engine that is not. Every
// session must belong to the same model and engine, appear at most once,
// and have room for its segment.
func Step(segs []Segment, logits *tensor.Matrix) {
	if len(segs) == 0 {
		panic("model: Step with no segments")
	}
	m, eng := segs[0].S.m, segs[0].S.eng
	for _, sg := range segs {
		if sg.S.m != m || sg.S.eng != eng {
			panic("model: Step session bound to a different model or engine")
		}
	}
	if len(segs) > 1 && !m.RowIndependent(eng) {
		panic(fmt.Sprintf("model: engine %T is row-dependent; its sessions must step one at a time", eng))
	}
	if logits.Rows != len(segs) || logits.Cols != m.Cfg.Vocab {
		panic(fmt.Sprintf("model: Step logits %dx%d for %d segments over vocab %d",
			logits.Rows, logits.Cols, len(segs), m.Cfg.Vocab))
	}
	p := newPass(m, eng)
	x := p.forward(segs)
	if x.Rows > len(segs) {
		// Some segment spans several rows: gather each one's last.
		last := scratch.GetUninit(len(segs), m.Cfg.DModel)
		r := 0
		for i, sg := range segs {
			r += len(sg.Tokens)
			copy(last.Row(i), x.Row(r-1))
		}
		scratch.Put(x)
		x = last
	}
	tensor.MatMulInto(x, m.Unembed, logits)
	scratch.Put(x)
}

// BatchStepper is Step with one decode token per session, in the
// session-list form older callers (perfbench's kernel attribution) use.
type BatchStepper struct{ m *Model }

// NewBatchStepper returns a BatchStepper for m over eng, or an error when
// eng is not RowIndependent.
func (m *Model) NewBatchStepper(eng Engine) (*BatchStepper, error) {
	if !m.RowIndependent(eng) {
		return nil, fmt.Errorf("model: engine %T is row-dependent; fused decode would not be bit-identical", eng)
	}
	return &BatchStepper{m}, nil
}

// Step appends tokens[i] to sessions[i] in one Step and returns the
// stacked logits.
func (bs *BatchStepper) Step(sessions []*Session, tokens []int) *tensor.Matrix {
	if len(tokens) != len(sessions) {
		panic(fmt.Sprintf("model: BatchStepper.Step with %d sessions, %d tokens", len(sessions), len(tokens)))
	}
	segs := make([]Segment, len(sessions))
	for i, s := range sessions {
		segs[i] = Segment{s, tokens[i : i+1]}
	}
	logits := tensor.New(len(sessions), bs.m.Cfg.Vocab)
	Step(segs, logits)
	return logits
}
