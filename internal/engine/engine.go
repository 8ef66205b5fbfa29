package engine

import (
	"fmt"
	"sort"
	"strconv"

	"tender/internal/model"
	"tender/internal/quant"
	"tender/internal/schemes"
	"tender/internal/schemes/ant"
	"tender/internal/schemes/llmint8"
	"tender/internal/schemes/msfp"
	"tender/internal/schemes/mx"
	"tender/internal/schemes/olive"
	"tender/internal/schemes/smoothquant"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// BuildOptions configures engine construction.
type BuildOptions struct {
	// Bits is the default element width when the spec has no bits= option
	// (default 8).
	Bits int
	// QuantActAct quantizes activation-activation matmuls (the paper's
	// Tender (all) protocol).
	QuantActAct bool
	// Serving builds engines for internal/serve, which chunks prefill,
	// mounts cached prefixes and stacks sessions in one model.Step — all
	// exact only when no row's result depends on which other rows share
	// its call. So a serving build refuses, after calibration, every
	// engine that fails the row-independence audit (model.Model.AuditRows)
	// with a *model.RowCoupledError: the specs the registry marks offline
	// only, and every engine but fp32 under QuantActAct. Tender without
	// rowchunk= serves with row chunking off, bit-identical to the offline
	// default for calibration streams no longer than its RowChunk of 256,
	// where chunking never engages.
	Serving bool
	// Streams/StreamLen size BuildEngines' shared calibration pass
	// (defaults 3×128).
	Streams, StreamLen int
	// Kernel is the default float GEMM backend when the spec has no
	// kernel= option ("" or "naive" = the bit-exact reference; "blocked" =
	// the register-tiled cache-blocked implementation). Integer engines
	// (tender:int) have one GEMM and accept only naive.
	Kernel string
}

func (o *BuildOptions) fill() {
	if o.Bits == 0 {
		o.Bits = 8
	}
	if o.Streams <= 0 {
		o.Streams = 3
	}
	if o.StreamLen <= 0 {
		o.StreamLen = 128
	}
}

// Entry is one registered scheme family.
type Entry struct {
	// Name is the canonical scheme name (the head of its specs).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Options documents the entry's spec options, "" if none beyond the
	// universal bits=<2..8>.
	Options string
	// Exact marks the unquantized reference: its engine needs no
	// calibration pass.
	Exact bool
	build func(o *optset, b BuildOptions) (schemes.Scheme, error)
	// optionKeys lists the spec option keys the builder consumes (beyond
	// the universal "bits"). SplitSpecList's comma disambiguation relies
	// on option keys never colliding with scheme names or aliases; the
	// registry guard test enforces that against this list.
	optionKeys []string
}

// registry is the one scheme-name table in the codebase; serving, the
// experiment harness and the CLIs all resolve specs against it.
var registry = []Entry{
	{
		Name: "fp32", Summary: "exact FP32 reference (no quantization)",
		Exact: true,
	},
	{
		Name: "fp16", Summary: "IEEE half-precision rounding of operands and result",
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			return schemes.FP16{}, nil
		},
	},
	{
		Name:       "uniform",
		Summary:    "plain uniform symmetric quantization (Table I)",
		Options:    "gran=tensor|row|column (default column), dynamic (per-call scales; offline only unless gran=row)",
		optionKeys: []string{"gran", "dynamic"},
		build: func(o *optset, b BuildOptions) (schemes.Scheme, error) {
			gran, err := o.gran("gran", quant.PerColumn)
			if err != nil {
				return nil, err
			}
			dyn, err := o.flag("dynamic")
			if err != nil {
				return nil, err
			}
			return schemes.Uniform{ActGran: gran, Dynamic: dyn}, nil
		},
	},
	{
		Name:       "smoothquant",
		Summary:    "SmoothQuant baseline: outlier migration into the weights",
		Options:    "alpha=<float> in (0,1] (default 0.5)",
		optionKeys: []string{"alpha"},
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			alpha, err := o.fnum("alpha", 0.5)
			if err != nil {
				return nil, err
			}
			if alpha <= 0 || alpha > 1 {
				return nil, fmt.Errorf("engine: smoothquant alpha=%v out of (0,1]", alpha)
			}
			return smoothquant.Scheme{Alpha: alpha}, nil
		},
	},
	{
		Name: "ant", Summary: "ANT baseline: per-tensor adaptive int/po2/flint datatypes",
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			return ant.New(), nil
		},
	},
	{
		Name: "olive", Summary: "OliVe baseline: outlier-victim pair encoding (couples rows; offline only)",
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			return olive.New(), nil
		},
	},
	{
		Name:       "llmint8",
		Summary:    "LLM.int8() baseline: FP16 outlier columns + INT8 rest",
		Options:    "threshold=<float> > 0 (default 6.0)",
		optionKeys: []string{"threshold"},
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			thr, err := o.fnum("threshold", llmint8.DefaultThreshold)
			if err != nil {
				return nil, err
			}
			if thr <= 0 {
				return nil, fmt.Errorf("engine: llmint8 threshold=%v must be > 0", thr)
			}
			return llmint8.Scheme{Threshold: thr}, nil
		},
	},
	{
		Name:       "msfp",
		Summary:    "MSFP12 block floating point (Table VI)",
		Options:    "ol (column-blocked MSFP12-OL variant; offline only)",
		optionKeys: []string{"ol"},
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			ol, err := o.flag("ol")
			if err != nil {
				return nil, err
			}
			if ol {
				return msfp.NewOL(), nil
			}
			return msfp.New(), nil
		},
	},
	{
		Name: "mxfp4", Summary: "OCP MXFP4 microscaling format (Table VII)",
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			return mx.NewMXFP4(), nil
		},
	},
	{
		Name: "smx4", Summary: "Shared-microexponents SMX4 format (Table VII)",
		build: func(o *optset, _ BuildOptions) (schemes.Scheme, error) {
			return mx.NewSMX4(), nil
		},
	},
	{
		Name:       "tender",
		Summary:    "the paper's decomposed quantization with implicit requantization",
		Options:    "groups=<int>, alpha=<int>, rowchunk=<int> (offline only), norowchunk, int, cluster, nobias",
		optionKeys: []string{"groups", "alpha", "rowchunk", "norowchunk", "int", "cluster", "nobias"},
		build: func(o *optset, b BuildOptions) (schemes.Scheme, error) {
			t := schemes.Tender{}
			var err error
			if t.Groups, err = o.num("groups", 0); err != nil {
				return nil, err
			}
			if t.Alpha, err = o.num("alpha", 0); err != nil {
				return nil, err
			}
			if t.RowChunk, err = o.num("rowchunk", 0); err != nil {
				return nil, err
			}
			if t.NoRowChunk, err = o.flag("norowchunk"); err != nil {
				return nil, err
			}
			if t.Integer, err = o.flag("int"); err != nil {
				return nil, err
			}
			if t.UseClustering, err = o.flag("cluster"); err != nil {
				return nil, err
			}
			if t.DisableBias, err = o.flag("nobias"); err != nil {
				return nil, err
			}
			_, chunked := o.spec.Get("rowchunk")
			if chunked && t.NoRowChunk {
				// schemes.Tender lets norowchunk override any chunk size, so
				// the pair would silently drop the rowchunk= the spec names.
				return nil, fmt.Errorf("engine: tender cannot take rowchunk= with norowchunk")
			}
			if t.Integer && t.UseClustering {
				// Clustered group scales are not powers of alpha apart, so the
				// integer GEMM cannot requantize between them.
				return nil, fmt.Errorf("engine: tender:int cannot take cluster: clustered scales are not powers of alpha apart")
			}
			if t.Integer && b.Kernel != "naive" {
				return nil, fmt.Errorf("engine: tender:int runs one integer GEMM; kernel=%s selects a float GEMM backend", b.Kernel)
			}
			// Zero means "unset" in schemes.Tender, so explicit zero or
			// negative values would be silently remapped to the paper
			// defaults (and tender.Config.validate panics on alpha < 2
			// only at calibration time) — reject them here.
			if _, set := o.spec.Get("groups"); set && t.Groups < 1 {
				return nil, fmt.Errorf("engine: tender groups=%d must be >= 1", t.Groups)
			}
			if _, set := o.spec.Get("alpha"); set && t.Alpha < 2 {
				return nil, fmt.Errorf("engine: tender alpha=%d must be >= 2", t.Alpha)
			}
			if chunked && t.RowChunk < 1 {
				return nil, fmt.Errorf("engine: tender rowchunk=%d must be >= 1 (use norowchunk to disable chunking)", t.RowChunk)
			}
			if b.Serving && !chunked {
				t.NoRowChunk = true
			}
			return t, nil
		},
	},
}

// aliases maps legacy scheme names to their spec equivalents; alias
// options (if any) are appended to the expansion.
var aliases = map[string]string{
	"exact":          "fp32",
	"uniform-tensor": "uniform:gran=tensor",
	"uniform-column": "uniform:gran=column",
	"tender-int":     "tender:int",
}

func entryFor(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

func isSchemeName(name string) bool {
	if _, ok := entryFor(name); ok {
		return true
	}
	_, ok := aliases[name]
	return ok
}

// Entries returns the registry in listing order.
func Entries() []Entry {
	return append([]Entry(nil), registry...)
}

// SchemeNames lists the canonical scheme names, sorted.
func SchemeNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}

// Resolved is a spec bound to its registry entry: everything needed to
// build the engine except the calibration recording.
type Resolved struct {
	// Spec is the canonical parsed spec (aliases expanded).
	Spec Spec
	// Name is the scheme's display name ("Tender", "SmoothQuant", …).
	Name string
	// Bits is the effective element width.
	Bits int
	// Exact marks the calibration-free FP32 reference.
	Exact bool
	// Scheme is the configured scheme factory; nil when Exact.
	Scheme schemes.Scheme
	// QuantActAct mirrors the build option.
	QuantActAct bool
	// Kernel is the effective GEMM backend name ("naive" or "blocked").
	Kernel string
}

// parseWithAliases parses a spec and expands legacy alias names.
func parseWithAliases(spec string) (Spec, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return Spec{}, err
	}
	target, ok := aliases[s.Scheme]
	if !ok {
		return s, nil
	}
	exp, err := ParseSpec(target)
	if err != nil {
		panic("engine: bad alias expansion " + target)
	}
	for _, o := range s.Opts {
		if _, dup := exp.Get(o.Key); dup {
			return Spec{}, fmt.Errorf("engine: option %q conflicts with alias %q (= %q)", o.Key, s.Scheme, target)
		}
		exp.Opts = append(exp.Opts, o)
	}
	return exp, nil
}

// Canonical returns the canonical form of a spec — parsed, lowercased,
// aliases expanded — validating only the grammar and the scheme name.
// Engine maps from BuildEngines are keyed by this form.
func Canonical(spec string) (string, error) {
	s, err := parseWithAliases(spec)
	if err != nil {
		return "", err
	}
	if _, ok := entryFor(s.Scheme); !ok {
		return "", fmt.Errorf("engine: unknown scheme %q in spec %q (known: %v)", s.Scheme, spec, SchemeNames())
	}
	return s.CanonicalString(), nil
}

// Resolve parses a spec and configures its scheme against the registry.
func Resolve(spec string, opt BuildOptions) (*Resolved, error) {
	opt.fill()
	s, err := parseWithAliases(spec)
	if err != nil {
		return nil, err
	}
	e, ok := entryFor(s.Scheme)
	if !ok {
		return nil, fmt.Errorf("engine: unknown scheme %q in spec %q (known: %v)", s.Scheme, spec, SchemeNames())
	}
	o := &optset{spec: s, used: map[string]bool{}}
	bits, err := o.num("bits", opt.Bits)
	if err != nil {
		return nil, err
	}
	if bits < 2 || bits > 8 {
		return nil, fmt.Errorf("engine: bits=%d out of range [2,8] in spec %q", bits, spec)
	}
	opt.Bits = bits
	kernel, ok := o.raw("kernel")
	if !ok {
		kernel = opt.Kernel
	}
	if _, err := tensor.KernelByName(kernel); err != nil {
		return nil, fmt.Errorf("engine: spec %q: %v", spec, err)
	}
	if kernel == "" {
		kernel = "naive"
	}
	opt.Kernel = kernel
	r := &Resolved{Spec: s, Bits: bits, Exact: e.Exact, QuantActAct: opt.QuantActAct, Kernel: kernel}
	if e.Exact {
		r.Name = "FP32"
	} else {
		if r.Scheme, err = e.build(o, opt); err != nil {
			return nil, err
		}
		r.Name = r.Scheme.Name()
	}
	if err := o.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// Engine builds the engine from an existing calibration recording. Exact
// engines ignore rec (which may be nil).
func (r *Resolved) Engine(rec *model.Recorder) model.Engine {
	kern := r.kernel()
	if r.Exact {
		return model.Exact{Kernel: kern}
	}
	e := model.Calibrate(r.Scheme, r.Bits, r.QuantActAct, rec)
	e.SetGEMMKernel(kern)
	return e
}

// kernel resolves the validated backend name, nil for the reference (so
// unroutable paths skip the indirection entirely).
func (r *Resolved) kernel() tensor.Kernel {
	kern, err := tensor.KernelByName(r.Kernel)
	if err != nil {
		panic("engine: unvalidated kernel name " + r.Kernel)
	}
	return kern
}

// BuildEngines calibrates one engine per requested spec over a single
// shared recording pass (the offline PTQ flow of §V-A), so hosting N
// schemes costs one calibration forward, not N. The result maps each
// spec's Canonical form to its engine — specs that only differ in
// spelling ("FP16", "fp16", "tender-int" vs "tender:int") dedupe to one
// engine under one key. With opt.Serving it returns the first engine that
// fails the row-independence audit as a *model.RowCoupledError instead.
func BuildEngines(m *model.Model, specs []string, opt BuildOptions) (map[string]model.Engine, error) {
	opt.fill()
	resolved := make(map[string]*Resolved, len(specs))
	order := make([]string, 0, len(specs))
	for _, spec := range specs {
		r, err := Resolve(spec, opt)
		if err != nil {
			return nil, err
		}
		key := r.Spec.CanonicalString()
		if _, dup := resolved[key]; dup {
			continue
		}
		resolved[key] = r
		order = append(order, key)
	}
	var rec *model.Recorder
	out := make(map[string]model.Engine, len(resolved))
	for _, key := range order {
		r := resolved[key]
		if !r.Exact && rec == nil {
			rec = model.NewRecorder()
			n := min(opt.StreamLen, m.Cfg.MaxSeq)
			m.Record(rec, workload.CalibrationStreams(m.Cfg.Seed, opt.Streams, n, m.Cfg.Vocab))
		}
		out[key] = r.Engine(rec)
		if opt.Serving {
			if err := m.AuditRows(key, out[key]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// optset tracks which spec options a builder consumed so leftovers are
// reported as errors.
type optset struct {
	spec Spec
	used map[string]bool
}

func (o *optset) raw(key string) (string, bool) {
	o.used[key] = true
	return o.spec.Get(key)
}

// num reads an integer option.
func (o *optset) num(key string, def int) (int, error) {
	v, ok := o.raw(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("engine: option %s=%q of %q: not an integer", key, v, o.spec.Scheme)
	}
	return n, nil
}

// fnum reads a float option.
func (o *optset) fnum(key string, def float64) (float64, error) {
	v, ok := o.raw(key)
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("engine: option %s=%q of %q: not a number", key, v, o.spec.Scheme)
	}
	return f, nil
}

// flag reads a boolean option ("flag" alone means true).
func (o *optset) flag(key string) (bool, error) {
	v, ok := o.raw(key)
	if !ok {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("engine: option %s=%q of %q: not a boolean", key, v, o.spec.Scheme)
	}
	return b, nil
}

// gran reads a granularity option.
func (o *optset) gran(key string, def quant.Granularity) (quant.Granularity, error) {
	v, ok := o.raw(key)
	if !ok {
		return def, nil
	}
	switch v {
	case "tensor":
		return quant.PerTensor, nil
	case "row":
		return quant.PerRow, nil
	case "column":
		return quant.PerColumn, nil
	}
	return 0, fmt.Errorf("engine: option %s=%q of %q: want tensor, row or column", key, v, o.spec.Scheme)
}

// finish errors on options no builder consumed.
func (o *optset) finish() error {
	for _, opt := range o.spec.Opts {
		if !o.used[opt.Key] {
			return fmt.Errorf("engine: unknown option %q for scheme %q", opt.Key, o.spec.Scheme)
		}
	}
	return nil
}
