package engine

import (
	"reflect"
	"strconv"
	"testing"

	"tender/internal/model"
)

// specSeeds is FuzzEngineSpecRoundTrip's seed corpus, which
// FuzzServableSpec shares.
var specSeeds = []string{
	"fp32",
	"tender:bits=4,int",
	"tender:int,bits=4", // same engine, different spelling
	"uniform:gran=column,dynamic",
	"smoothquant:alpha=0.7",
	"fp32:kernel=blocked",
	"TENDER:Bits=4", // case folding
	" tender : bits=4 ",
	"tender:", ":", "", ",", "a=b", "x:,", "x:k=", "x:k,k", // malformed shapes
	"tender:bits=4,int;fp16",
	"tender,fp16",
}

// FuzzEngineSpecRoundTrip checks the spec grammar's algebraic contracts on
// arbitrary input: parsing never panics; a spec that parses re-parses from
// its own String() to the identical structure; CanonicalString is a fixed
// point under re-parse (so engine maps keyed by it are stable however the
// user spelled the spec); and Canonical/SplitSpecList reject or accept
// without panicking. Every engine name a user can type — CLI flags, serve
// configs, BENCH row names — flows through these functions.
func FuzzEngineSpecRoundTrip(f *testing.F) {
	for _, s := range specSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		_, _ = Canonical(s)     // must not panic, error is fine
		_, _ = SplitSpecList(s) // likewise
		if err != nil {
			return
		}
		rt, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not re-parse: %v", s, spec.String(), err)
		}
		if !reflect.DeepEqual(rt, spec) {
			t.Fatalf("round trip changed the spec: %q → %+v → %q → %+v", s, spec, spec.String(), rt)
		}
		canon := spec.CanonicalString()
		cspec, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, s, err)
		}
		if got := cspec.CanonicalString(); got != canon {
			t.Fatalf("CanonicalString not a fixed point: %q → %q → %q", s, canon, got)
		}
	})
}

// FuzzServableSpec checks the servability rule on arbitrary specs, with
// and without QuantActAct: a spec the serving build accepts serves chunked
// prefill bit-identically to one-shot prefill, and any other spec is
// refused (checkServable). Tender calibration allocates per group, so specs
// asking for more than 64 groups are skipped to keep each input small.
func FuzzServableSpec(f *testing.F) {
	for _, s := range append(servableSpecs(), specSeeds...) {
		f.Add(s, false)
		f.Add(s, true)
	}
	m := model.New(model.TinyConfig())
	f.Fuzz(func(t *testing.T, spec string, qaa bool) {
		if s, err := parseWithAliases(spec); err == nil {
			if g, ok := s.Get("groups"); ok {
				if n, err := strconv.Atoi(g); err == nil && n > 64 {
					t.Skip("more groups than the fuzz budget")
				}
			}
		}
		checkServable(t, m, spec, qaa)
	})
}
