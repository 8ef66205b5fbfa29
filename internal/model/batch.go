package model

import (
	"fmt"
	"math"
	"time"

	"tender/internal/tensor"
)

// scratch recycles every intermediate of the incremental block. An Arena is
// safe for concurrent use, so sessions and steppers on different goroutines
// share it; in steady state a decode step draws every matrix from it and
// performs no heap allocations.
var scratch = tensor.NewArena()

// segment is one session's share of a stacked forward pass: its new tokens,
// which occupy consecutive rows of the stacked activations at absolute
// positions s.pos .. s.pos+len(toks)-1.
type segment struct {
	s    *Session
	toks []int
}

// pass is the incremental transformer: the one block every KV-cached path
// runs. Session.Append is a pass over one segment (a prefill chunk or a
// decode token) and BatchStepper.Step a pass over one single-token segment
// per session. Weight sites run one engine call over all stacked rows;
// attention runs per segment against that session's cache. Model.block,
// the full-sequence encoder/forward block, is the independent reference
// the identity tests hold it to.
type pass struct {
	m        *Model
	eng      Engine
	into     EngineInto // nil when the engine has no Into fast path
	exactAtt bool       // act-act sites run the exact GEMM → direct loops
}

func newPass(m *Model, eng Engine) pass {
	p := pass{m: m, eng: eng}
	p.into, _ = eng.(EngineInto)
	if ea, ok := eng.(exactActAct); ok {
		p.exactAtt = ea.ExactActAct()
	}
	return p
}

// forward appends every segment's tokens to its session and returns the
// final-LayerNormed hidden rows, stacked in segment order. The result is a
// scratch matrix: the caller unembeds it and puts it back.
func (p *pass) forward(segs []segment) *tensor.Matrix {
	m := p.m
	rows := 0
	for _, sg := range segs {
		n := len(sg.toks)
		if sg.s.pos+n > m.Cfg.MaxSeq {
			panic(fmt.Sprintf("model: session length %d+%d exceeds max %d", sg.s.pos, n, m.Cfg.MaxSeq))
		}
		for _, t := range sg.toks {
			if t < 0 || t >= m.Cfg.Vocab {
				panic(fmt.Sprintf("model: token %d out of vocab", t))
			}
		}
		rows += n
	}
	x := scratch.GetUninit(rows, m.Cfg.DModel)
	r := 0
	for _, sg := range segs {
		for i, t := range sg.toks {
			row := x.Row(r)
			copy(row, m.Embed.Row(t))
			pos := m.Pos.Row(sg.s.pos + i)
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
		sg.s.pos += len(sg.toks)
	}
	tensor.LayerNormRows(x, m.LNFGain, m.LNFBias)
	return x
}

// block is Model.block for the stacked segments against their cached
// keys/values: in-place residual adds give the same values as the
// reference's fresh Add results.
func (p *pass) block(l int, segs []segment, x *tensor.Matrix) {
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
		n := len(sg.toks)
		kv := &sg.s.kv[l]
		for i := r; i < r+n; i++ {
			kv.k.AppendRow(xk.Row(i))
			kv.v.AppendRow(xv.Row(i))
		}
		p.attend(l, sg.s, xq, attnOut, r, n)
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
// r+i is the query at absolute position s.pos+i and sees keys 0..s.pos+i.
func (p *pass) attend(l int, s *Session, xq, out *tensor.Matrix, r, n int) {
	m := p.m
	heads := m.Cfg.Heads
	dh := m.Cfg.HeadDim()
	d := m.Cfg.DModel
	invSqrt := 1 / math.Sqrt(float64(dh))
	kst, vst := s.kv[l].k, s.kv[l].v
	seq := kst.Rows()

	if p.exactAtt {
		// The engine's act-act sites are the exact GEMM, so score and
		// value products are computed straight off the cache spans with
		// tensor.MatMul's per-element accumulation order (k ascending with
		// zero-skip for scores, keys ascending with zero-skip for values) —
		// bit-identical, no per-head copies. Each cache page is read once
		// per head for all the segment's rows. Keys past a row's causal
		// horizon are never scored: in the reference they are masked to
		// -Inf, add an exact 0 to the softmax sum and are zero-skipped by
		// the value product.
		sc := scratch.GetUninit(n, seq) // row i uses its first s.pos+i+1 columns
		for hd := 0; hd < heads; hd++ {
			lo := hd * dh
			for i := 0; i < n; i++ {
				clear(sc.Row(i)[:s.pos+i+1])
			}
			for base := 0; base < seq; {
				data, run := kst.Span(base)
				for i := max(0, base-s.pos); i < n; i++ {
					srow := sc.Row(i)[base:]
					qrow := xq.Row(r + i)[lo : lo+dh]
					keys := min(run, s.pos+i+1-base)
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
				vis := s.pos + i + 1
				score := tensor.Matrix{Rows: 1, Cols: vis, Data: sc.Row(i)[:vis]}
				score.Scale(invSqrt)
				tensor.SoftmaxRows(&score)
			}
			for base := 0; base < seq; {
				data, run := vst.Span(base)
				for i := max(0, base-s.pos); i < n; i++ {
					srow := sc.Row(i)[base:]
					o := out.Row(r + i)[lo : lo+dh]
					keys := min(run, s.pos+i+1-base)
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

	// Quantized attention (QuantActAct engines): materialize the per-head
	// operands of the segment's n rows against the whole cache and route
	// both attention sites through the engine, exactly as Model.block
	// does for a full sequence.
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
		tensor.CausalMaskOffsetInPlace(score, s.pos)
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

// BatchStepper runs one fused decode iteration across many Sessions: the
// current token of every session is stacked into one [B × d_model]
// activation matrix and the incremental block runs once — a single
// Engine.MatMul per weight site (Q/K/V/Out/FC1/FC2 and the unembedding)
// over the stacked batch — while attention stays per session, scoring each
// row against that session's own KV cache and position offset. It is the
// same pass Session.Append runs, with one single-token segment per session,
// so the result is bit-identical to stepping each session alone as long as
// every weight site of the engine treats activation rows independently
// (RowIndependentEngine).
//
// With an EngineInto engine (the FP32 reference) steady-state decode
// performs no heap allocations per token. A stepper is bound to one
// (Model, Engine) pair; membership is passed per call, so the serving
// scheduler can regroup requests every iteration as sessions join and
// finish. A BatchStepper is not safe for concurrent use, but separate
// steppers sharing one engine may run concurrently — engines and their
// packed weights are read-only at inference time.
type BatchStepper struct {
	pass
	segs   []segment      // per-Step scratch
	logits *tensor.Matrix // previous Step's output, recycled next call
	// stepHook, when set, observes every Step's batch size and wall-clock.
	// The clock is read only with a hook installed, so the unhooked path —
	// including the zero-alloc decode benchmarks — pays nothing.
	stepHook func(batch int, d time.Duration)
}

// SetStepHook installs (or, with nil, removes) a per-Step timing callback.
// The hook runs on the Step caller's goroutine after the forward pass; it
// must not retain the stepper's matrices. Not safe to call concurrently
// with Step.
func (bs *BatchStepper) SetStepHook(hook func(batch int, d time.Duration)) {
	bs.stepHook = hook
}

// weightSiteKinds are the matmul sites fused over the stacked batch.
var weightSiteKinds = [...]SiteKind{KindQ, KindK, KindV, KindOut, KindFC1, KindFC2}

// rowIndependent is the audit fused decode and the prefix cache share: eng
// must implement RowIndependentEngine and report every weight site of the
// model row-independent.
func (m *Model) rowIndependent(eng Engine) error {
	rie, ok := eng.(RowIndependentEngine)
	if !ok {
		return fmt.Errorf("model: engine %T does not declare row-independent matmuls", eng)
	}
	for l := 0; l < m.Cfg.Layers; l++ {
		for _, kind := range weightSiteKinds {
			site := Site{l, kind, -1}
			if !rie.RowIndependentMatMul(site) {
				return fmt.Errorf("model: %v of engine %T is row-dependent; fused decode would not be bit-identical", site, eng)
			}
		}
	}
	return nil
}

// NewBatchStepper returns a fused decode stepper for m over eng, or an
// error when the engine cannot guarantee bit-identical fusion: it must
// implement RowIndependentEngine and report every weight site of the
// model row-independent. Row-dependent engines (e.g. OliVe's cross-row
// outlier-victim pairing) must keep decoding one session at a time.
func (m *Model) NewBatchStepper(eng Engine) (*BatchStepper, error) {
	if m.Cfg.Arch != Decoder {
		return nil, fmt.Errorf("model: fused decode requires a decoder model")
	}
	if err := m.rowIndependent(eng); err != nil {
		return nil, err
	}
	return &BatchStepper{pass: newPass(m, eng)}, nil
}

// Step appends one token to every session in a single fused forward pass
// and returns the stacked logits (len(sessions) × vocab, row i for
// sessions[i]). All sessions must belong to the stepper's model and
// engine, appear at most once, and have room for one more position. The
// returned matrix is owned by the stepper and valid until the next Step.
func (bs *BatchStepper) Step(sessions []*Session, tokens []int) *tensor.Matrix {
	b := len(sessions)
	if b == 0 || len(tokens) != b {
		panic(fmt.Sprintf("model: BatchStepper.Step with %d sessions, %d tokens", b, len(tokens)))
	}
	var t0 time.Time
	if bs.stepHook != nil {
		t0 = time.Now()
	}
	segs := bs.segs[:0]
	for i, s := range sessions {
		if s.m != bs.m || s.eng != bs.eng {
			panic("model: BatchStepper.Step session bound to a different model or engine")
		}
		segs = append(segs, segment{s, tokens[i : i+1]})
	}
	x := bs.forward(segs)
	clear(segs) // drop session references until the next Step
	bs.segs = segs
	if bs.logits != nil {
		scratch.Put(bs.logits)
	}
	logits := scratch.GetUninit(b, bs.m.Cfg.Vocab)
	tensor.MatMulInto(x, bs.m.Unembed, logits)
	scratch.Put(x)
	bs.logits = logits
	if bs.stepHook != nil {
		bs.stepHook(b, time.Since(t0))
	}
	return logits
}
