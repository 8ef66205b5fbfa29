package experiments

import (
	"sync"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// paperFP16 anchors each (model, stream) base perplexity to the paper's
// published FP16 value (Table II / Table VI); the softmax temperature is
// calibrated so the reproduction's FP32 reference matches it, making
// measured quantization deltas directly comparable (README paper map, §V-§VI).
var paperFP16 = map[string]map[workload.Stream]float64{
	"opt-6.7b":    {workload.Wiki: 10.86, workload.PTB: 13.09},
	"opt-13b":     {workload.Wiki: 10.13, workload.PTB: 12.34},
	"opt-66b":     {workload.Wiki: 9.34, workload.PTB: 11.36},
	"llama-2-7b":  {workload.Wiki: 5.47, workload.PTB: 20.83},
	"llama-2-13b": {workload.Wiki: 4.88, workload.PTB: 28.93},
	"llama-2-70b": {workload.Wiki: 3.32, workload.PTB: 14.44},
	"llama-7b":    {workload.Wiki: 5.68, workload.PTB: 8.80},
	"llama-13b":   {workload.Wiki: 5.09, workload.PTB: 8.07},
	"llama-65b":   {workload.Wiki: 3.56, workload.PTB: 10.00},
}

// harness caches models, calibration recordings, evaluation streams,
// reference logits and calibrated temperatures across experiments.
type harness struct {
	opts Options

	mu      sync.Mutex
	models  map[string]*model.Model
	recs    map[string]*model.Recorder
	streams map[streamKey][]int
	refs    map[streamKey]*tensor.Matrix
	temps   map[streamKey]float64
	engines map[engineKey]model.Engine
}

type engineKey struct {
	model string
	spec  string
	bits  int
	qaa   bool
}

type streamKey struct {
	model  string
	stream workload.Stream
	seq    int
}

func newHarness(o Options) *harness {
	return &harness{
		opts:    o,
		models:  make(map[string]*model.Model),
		recs:    make(map[string]*model.Recorder),
		streams: make(map[streamKey][]int),
		refs:    make(map[streamKey]*tensor.Matrix),
		temps:   make(map[streamKey]float64),
		engines: make(map[engineKey]model.Engine),
	}
}

func (h *harness) model(name string) *model.Model {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m, ok := h.models[name]; ok {
		return m
	}
	m := model.New(model.Registry(name))
	h.models[name] = m
	return m
}

// recorder returns the cached calibration recording for a model.
func (h *harness) recorder(name string) *model.Recorder {
	m := h.model(name)
	h.mu.Lock()
	defer h.mu.Unlock()
	if r, ok := h.recs[name]; ok {
		return r
	}
	count, length := h.opts.calibStreams()
	rec := model.NewRecorder()
	m.Record(rec, workload.CalibrationStreams(1000+h.opts.Seed, count, length, m.Cfg.Vocab))
	h.recs[name] = rec
	return rec
}

// engine builds (or returns the cached) calibrated engine for an
// EngineSpec from the cached recording. The spec string is the cache key,
// so scheme variants (e.g. "tender:groups=4") disambiguate themselves.
func (h *harness) engine(name, spec string, bits int, quantActAct bool) model.Engine {
	k := engineKey{name, spec, bits, quantActAct}
	h.mu.Lock()
	if e, ok := h.engines[k]; ok {
		h.mu.Unlock()
		return e
	}
	h.mu.Unlock()
	r, err := engine.Resolve(spec, engine.BuildOptions{Bits: bits, QuantActAct: quantActAct})
	if err != nil {
		panic(err)
	}
	e := r.Engine(h.recorder(name))
	h.mu.Lock()
	h.engines[k] = e
	h.mu.Unlock()
	return e
}

// specLabel returns the display name of a spec for table rows.
func specLabel(spec string) string {
	r, err := engine.Resolve(spec, engine.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return r.Name
}

// evalStream returns the cached evaluation token stream.
func (h *harness) evalStream(name string, st workload.Stream, seq int) []int {
	m := h.model(name)
	h.mu.Lock()
	defer h.mu.Unlock()
	k := streamKey{name, st, seq}
	if s, ok := h.streams[k]; ok {
		return s
	}
	s := workload.TokenStream(st, 7+h.opts.Seed, seq, m.Cfg.Vocab)
	h.streams[k] = s
	return s
}

// refAndTemp returns cached reference logits and the anchored temperature.
func (h *harness) refAndTemp(name string, st workload.Stream, seq int) (*tensor.Matrix, float64) {
	m := h.model(name)
	toks := h.evalStream(name, st, seq)
	h.mu.Lock()
	defer h.mu.Unlock()
	k := streamKey{name, st, seq}
	if ref, ok := h.refs[k]; ok {
		return ref, h.temps[k]
	}
	target := paperFP16[name][st]
	if target == 0 {
		target = 10
	}
	temp := model.CalibrateTemperature(m, toks, target)
	ref := m.Forward(toks, model.Exact{})
	h.refs[k] = ref
	h.temps[k] = temp
	return ref, temp
}

// ppl evaluates one (model, spec, bits, stream) cell.
func (h *harness) ppl(name, spec string, bits int, quantActAct bool, st workload.Stream) model.PerplexityResult {
	return h.pplAt(name, spec, bits, quantActAct, st, h.opts.evalSeq())
}

// pplAt evaluates at an explicit sequence length.
func (h *harness) pplAt(name, spec string, bits int, quantActAct bool, st workload.Stream, seq int) model.PerplexityResult {
	m := h.model(name)
	toks := h.evalStream(name, st, seq)
	ref, temp := h.refAndTemp(name, st, seq)
	eng := h.engine(name, spec, bits, quantActAct)
	return model.TeacherPerplexityAgainst(ref, m, eng, toks, temp)
}

// base returns the anchored FP16 base for a (model, stream).
func (h *harness) base(name string, st workload.Stream) float64 {
	_, temp := h.refAndTemp(name, st, h.opts.evalSeq())
	_ = temp
	r := h.pplAt(name, "fp16", 8, false, st, h.opts.evalSeq())
	return r.Base
}
