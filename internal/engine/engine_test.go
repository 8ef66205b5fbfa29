package engine

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"tender/internal/model"
	"tender/internal/schemes"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// TestRegistryGuard asserts every registry entry parses, resolves, builds
// an engine on a tiny model, and appears in SchemeNames — the invariant
// that keeps this file the single scheme table.
func TestRegistryGuard(t *testing.T) {
	names := map[string]bool{}
	for _, n := range SchemeNames() {
		names[n] = true
	}
	if len(names) != len(registry) {
		t.Fatalf("SchemeNames has %d entries, registry %d", len(names), len(registry))
	}
	m := model.New(model.TinyConfig())
	for _, e := range Entries() {
		if !names[e.Name] {
			t.Fatalf("registry entry %q missing from SchemeNames", e.Name)
		}
		if e.Summary == "" {
			t.Fatalf("registry entry %q has no summary", e.Name)
		}
		spec, err := ParseSpec(e.Name)
		if err != nil || spec.Scheme != e.Name {
			t.Fatalf("entry name %q does not parse as a spec: %v", e.Name, err)
		}
		for _, serving := range []bool{false, true} {
			r, err := Resolve(e.Name, BuildOptions{Serving: serving})
			if err != nil {
				t.Fatalf("Resolve(%q, serving=%v): %v", e.Name, serving, err)
			}
			if r.Exact != e.Exact || (r.Scheme == nil) != e.Exact {
				t.Fatalf("entry %q: exactness mismatch", e.Name)
			}
		}
		engines, err := BuildEngines(m, []string{e.Name}, BuildOptions{Streams: 1, StreamLen: 16})
		if err != nil {
			t.Fatalf("BuildEngines(%q): %v", e.Name, err)
		}
		if engines[e.Name] == nil {
			t.Fatalf("BuildEngines(%q) returned no engine", e.Name)
		}
	}
	for alias := range aliases {
		if _, err := Resolve(alias, BuildOptions{}); err != nil {
			t.Fatalf("alias %q does not resolve: %v", alias, err)
		}
	}
	// Option keys must never collide with scheme names or aliases — the
	// invariant SplitSpecList's comma disambiguation rests on — and every
	// declared key must actually be consumed by its builder (an undeclared
	// key would surface as an "unknown option" error at resolve time, so
	// declaration and documentation must agree).
	for _, e := range Entries() {
		if (len(e.optionKeys) == 0) != (e.Options == "") {
			t.Fatalf("entry %q: optionKeys and Options documentation disagree", e.Name)
		}
		for _, key := range append([]string{"bits", "kernel"}, e.optionKeys...) {
			if isSchemeName(key) {
				t.Fatalf("option key %q of %q collides with a scheme name or alias", key, e.Name)
			}
		}
	}
}

// TestBuildEnginesSharedCalibration: several specs share one recording
// pass and an exact spec needs none.
func TestBuildEnginesSharedCalibration(t *testing.T) {
	m := model.New(model.TinyConfig())
	specs := []string{"fp32", "tender", "tender:int", "uniform:gran=tensor"}
	engines, err := BuildEngines(m, specs, BuildOptions{Streams: 1, StreamLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != len(specs) {
		t.Fatalf("got %d engines, want %d", len(engines), len(specs))
	}
	// Non-canonical spellings dedupe to one engine under the canonical
	// key, keeping a sole hosted scheme a sole map entry.
	alt, err := BuildEngines(m, []string{"FP16", "fp16", "Tender-Int"}, BuildOptions{Streams: 1, StreamLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(alt) != 2 || alt["fp16"] == nil || alt["tender:int"] == nil {
		t.Fatalf("want canonical keys {fp16, tender:int}, got %d engines", len(alt))
	}
	if c, err := Canonical(" Tender-Int : groups=4 "); err != nil || c != "tender:groups=4,int" {
		t.Fatalf("Canonical = %q, %v", c, err)
	}
	// Option order is spelling, not identity.
	c1, err1 := Canonical("tender:bits=4,int")
	c2, err2 := Canonical("tender:int,bits=4")
	if err1 != nil || err2 != nil || c1 != c2 {
		t.Fatalf("option order must not change the canonical key: %q vs %q", c1, c2)
	}
	if _, err := Canonical("nosuch"); err == nil {
		t.Fatal("Canonical must reject unknown schemes")
	}
	if _, ok := engines["fp32"].(model.Exact); !ok {
		t.Fatal("fp32 must map to the exact engine")
	}
	toks := workload.TokenStream(workload.Wiki, 3, 12, m.Cfg.Vocab)
	ref := m.Forward(toks, model.Exact{})
	if tensor.MaxAbsDiff(ref, m.Forward(toks, engines["fp32"])) != 0 {
		t.Fatal("fp32 engine not exact")
	}
	// The two Tender variants are mathematically equivalent paths.
	a := m.Forward(toks, engines["tender"])
	b := m.Forward(toks, engines["tender:int"])
	if tensor.MaxAbsDiff(a, b) > 1e-9*(a.AbsMax()+1) {
		t.Fatal("tender and tender:int diverge")
	}
}

// TestBuildEnginesUnknownScheme: construction fails fast with the known
// names in the message.
func TestBuildEnginesUnknownScheme(t *testing.T) {
	m := model.New(model.TinyConfig())
	if _, err := BuildEngines(m, []string{"tender", "nope"}, BuildOptions{}); err == nil {
		t.Fatal("unknown scheme must fail")
	}
}

// TestKernelOption: kernel= selects the float GEMM backend like bits=
// selects the width. It must resolve on float schemes, default from
// BuildOptions, reject unknown backends, and produce engines whose float
// paths stay within tolerance of the reference. tender:int has one integer
// GEMM, so any backend other than naive is an error there, whether it
// comes from the spec or from BuildOptions.
// TestSpecIntRefusesCluster: the integer engine has no clustered variant
// (clustered group scales are not powers of alpha apart), so int with
// cluster is refused however it is spelled — before, it resolved and
// silently served the float path — while each option alone resolves.
func TestSpecIntRefusesCluster(t *testing.T) {
	for _, spec := range []string{"tender:int,cluster", "tender:cluster,int", "tender-int:cluster"} {
		if _, err := Resolve(spec, BuildOptions{}); err == nil {
			t.Fatalf("Resolve(%q) must reject int with cluster", spec)
		}
	}
	for _, spec := range []string{"tender", "tender:int", "tender:cluster", "tender-int"} {
		if _, err := Resolve(spec, BuildOptions{}); err != nil {
			t.Fatalf("Resolve(%q): %v", spec, err)
		}
	}
}

func TestKernelOption(t *testing.T) {
	m := model.New(model.TinyConfig())
	for _, spec := range []string{"fp32:kernel=blocked", "fp16:kernel=blocked", "tender:kernel=blocked"} {
		r, err := Resolve(spec, BuildOptions{})
		if err != nil {
			t.Fatalf("Resolve(%q): %v", spec, err)
		}
		if r.Kernel != "blocked" {
			t.Fatalf("Resolve(%q).Kernel = %q", spec, r.Kernel)
		}
	}
	if r, err := Resolve("fp32", BuildOptions{}); err != nil || r.Kernel != "naive" {
		t.Fatalf("default kernel: %+v, %v", r, err)
	}
	if r, err := Resolve("fp32", BuildOptions{Kernel: "blocked"}); err != nil || r.Kernel != "blocked" {
		t.Fatalf("BuildOptions.Kernel default: %+v, %v", r, err)
	}
	// Spec option overrides the build default.
	if r, err := Resolve("fp32:kernel=naive", BuildOptions{Kernel: "blocked"}); err != nil || r.Kernel != "naive" {
		t.Fatalf("spec override: %+v, %v", r, err)
	}
	if _, err := Resolve("fp32:kernel=fast", BuildOptions{}); err == nil {
		t.Fatal("unknown kernel must be rejected")
	}
	if _, err := Resolve("fp32", BuildOptions{Kernel: "fast"}); err == nil {
		t.Fatal("unknown BuildOptions.Kernel must be rejected")
	}

	// The integer engine takes no backend: spec, alias and build default
	// are all rejected, while naive (spelled out or inherited) resolves.
	for _, c := range []struct {
		spec, kernel string
	}{{"tender:int,kernel=blocked", ""}, {"tender:int", "blocked"}, {"tender-int", "blocked"}} {
		if _, err := Resolve(c.spec, BuildOptions{Kernel: c.kernel}); err == nil {
			t.Fatalf("Resolve(%q, Kernel %q) must reject a float backend for tender:int", c.spec, c.kernel)
		}
	}
	for _, c := range []struct {
		spec, kernel string
	}{{"tender:int,kernel=naive", "blocked"}, {"tender:int", "naive"}, {"tender:int", ""}} {
		if r, err := Resolve(c.spec, BuildOptions{Kernel: c.kernel}); err != nil || r.Kernel != "naive" {
			t.Fatalf("Resolve(%q, Kernel %q) = %+v, %v", c.spec, c.kernel, r, err)
		}
	}

	// Float schemes: tolerance-gated.
	toks := workload.TokenStream(workload.Wiki, 5, 12, m.Cfg.Vocab)
	specs := []string{"fp16", "fp16:kernel=blocked", "fp32", "fp32:kernel=blocked", "tender", "tender:kernel=blocked"}
	engines, err := BuildEngines(m, specs, BuildOptions{Streams: 1, StreamLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(specs); i += 2 {
		ref, blk := specs[i], specs[i+1]
		a := m.Forward(toks, engines[ref])
		b := m.Forward(toks, engines[blk])
		for j := range a.Data {
			tol := 1e-9 * (1 + math.Abs(a.Data[j]))
			if math.Abs(a.Data[j]-b.Data[j]) > tol {
				t.Fatalf("%s vs %s diverge beyond tolerance at %d: %v vs %v", ref, blk, j, a.Data[j], b.Data[j])
			}
		}
	}
	// The audit mirrors RowIndependent: every weight site of a calibrated
	// fp16 engine accepts the blocked backend.
	se, ok := engines["fp16:kernel=blocked"].(*model.SchemeEngine)
	if !ok {
		t.Fatalf("fp16 engine is %T, want *model.SchemeEngine", engines["fp16:kernel=blocked"])
	}
	if set, total := se.SetGEMMKernel(tensor.KernelBlocked); total == 0 || set != total {
		t.Fatalf("fp16 kernel audit: %d/%d sites accepted", set, total)
	}
}

// servableSpecs enumerates every registry entry with every subset of its
// flag options, plus the value options that decide servability.
func servableSpecs() []string {
	var out []string
	for _, e := range registry {
		var flags []string
		for _, key := range e.optionKeys {
			// A value option rejects "x" as its value type; a flag as a
			// boolean.
			if _, err := Resolve(e.Name+":"+key+"=x", BuildOptions{}); err != nil && strings.Contains(err.Error(), "not a boolean") {
				flags = append(flags, key)
			}
		}
		for mask := 0; mask < 1<<len(flags); mask++ {
			var opts []string
			for i, f := range flags {
				if mask&(1<<i) != 0 {
					opts = append(opts, f)
				}
			}
			spec := e.Name
			if len(opts) > 0 {
				spec += ":" + strings.Join(opts, ",")
			}
			out = append(out, spec)
		}
	}
	return append(out, "tender:rowchunk=64", "tender:rowchunk=64,norowchunk", "tender:int,rowchunk=8",
		"uniform:gran=row", "uniform:gran=row,dynamic", "uniform:gran=tensor", "uniform:gran=tensor,dynamic",
		"fp32:kernel=blocked", "fp16:kernel=blocked", "tender:bits=4,int")
}

// checkServable asserts the servability property for one spec: a spec the
// offline build rejects stays rejected, and otherwise the serving build
// either refuses it with a *model.RowCoupledError naming it, or yields an
// engine whose 5-token-chunked prefill equals its one-shot prefill bit for
// bit, every row, and whose Tender options are the ones the spec names.
func checkServable(t *testing.T, m *model.Model, spec string, qaa bool) {
	t.Helper()
	opt := BuildOptions{QuantActAct: qaa, Streams: 1, StreamLen: 24}
	r, err := Resolve(spec, opt)
	if err != nil {
		return
	}
	key := r.Spec.CanonicalString()
	opt.Serving = true
	engines, err := BuildEngines(m, []string{spec}, opt)
	var rc *model.RowCoupledError
	switch {
	case errors.As(err, &rc) && errors.Is(err, model.ErrRowCoupled):
		if rc.Spec != key {
			t.Fatalf("%s: refusal names %q, want %q", spec, rc.Spec, key)
		}
		return
	case err != nil:
		t.Fatalf("%s: serving build failed without model.ErrRowCoupled: %v", spec, err)
	}
	eng := engines[key]
	if se, ok := eng.(*model.SchemeEngine); ok {
		if td, ok := se.Scheme.(schemes.Tender); ok {
			for opt, got := range map[string]bool{"int": td.Integer, "cluster": td.UseClustering, "nobias": td.DisableBias} {
				v, _ := r.Spec.Get(opt)
				if want, _ := strconv.ParseBool(v); got != want {
					t.Fatalf("%s: effective %s is %v", spec, opt, got)
				}
			}
			// Chunking is the spec's rowchunk= when named, else off.
			v, set := r.Spec.Get("rowchunk")
			if set == td.NoRowChunk || (set && strconv.Itoa(td.RowChunk) != v) {
				t.Fatalf("%s: effective rowchunk %d (norowchunk %v), spec names %q", spec, td.RowChunk, td.NoRowChunk, v)
			}
		}
	}
	prompt := workload.TokenStream(workload.Wiki, 7, 24, m.Cfg.Vocab)
	one := m.NewSession(eng, 0).Append(prompt)
	chunked := m.NewSession(eng, 0)
	for at := 0; at < len(prompt); at += 5 {
		got := chunked.Append(prompt[at:min(at+5, len(prompt))])
		want := one.RowView(at, at+got.Rows)
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s (QuantActAct %v) served, but the chunk at row %d differs from one-shot prefill by %g",
					spec, qaa, at, tensor.MaxAbsDiff(got, want))
			}
		}
	}
}

// TestServableSpecTable is the servability rule over the registry: every
// entry × every subset of its flag options × QuantActAct off and on is
// either refused by the serving build with model.ErrRowCoupled, or serves
// chunked prefill bit-identically to one-shot prefill.
func TestServableSpecTable(t *testing.T) {
	m := model.New(model.TinyConfig())
	for _, spec := range servableSpecs() {
		for _, qaa := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/qaa=%v", spec, qaa), func(t *testing.T) {
				checkServable(t, m, spec, qaa)
			})
		}
	}
}
