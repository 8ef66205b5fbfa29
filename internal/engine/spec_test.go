package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tender/internal/model"
	"tender/internal/schemes"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
		scheme    string
		opts      []Option
	}{
		{"fp32", "fp32", "fp32", nil},
		{"  FP16  ", "fp16", "fp16", nil},
		{"tender:bits=4,int", "tender:bits=4,int", "tender",
			[]Option{{"bits", "4"}, {"int", "true"}}},
		{"tender:int=true", "tender:int", "tender", []Option{{"int", "true"}}},
		{"uniform:gran=column,dynamic", "uniform:gran=column,dynamic", "uniform",
			[]Option{{"gran", "column"}, {"dynamic", "true"}}},
		{"smoothquant:alpha=0.7", "smoothquant:alpha=0.7", "smoothquant",
			[]Option{{"alpha", "0.7"}}},
		{"tender: groups=4 , nobias ", "tender:groups=4,nobias", "tender",
			[]Option{{"groups", "4"}, {"nobias", "true"}}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got.Scheme != c.scheme || !reflect.DeepEqual(got.Opts, c.opts) {
			t.Fatalf("ParseSpec(%q) = %+v", c.in, got)
		}
		if got.String() != c.canonical {
			t.Fatalf("ParseSpec(%q).String() = %q, want %q", c.in, got.String(), c.canonical)
		}
		again, err := ParseSpec(got.String())
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip of %q failed: %+v vs %+v (%v)", c.in, again, got, err)
		}
	}
}

func TestParseSpecMalformed(t *testing.T) {
	for _, in := range []string{
		"",
		"   ",
		":bits=4",
		"tender:",
		"tender:,int",
		"tender:bits=",
		"tender:=4",
		"tender:int,int",
		"tender:bits=4,bits=8",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", in)
		}
	}
}

func TestResolveMalformed(t *testing.T) {
	cases := []struct {
		in      string
		errLike string
	}{
		{"tender:bits=nope", "not an integer"},
		{"nosuchscheme", "unknown scheme"},
		{"tender:int,int", "duplicate option"},
		{"tender:wat=1", "unknown option"},
		{"fp32:frob", "unknown option"},
		{"uniform:gran=diagonal", "want tensor, row or column"},
		{"tender:bits=99", "out of range"},
		{"tender:bits=1", "out of range"},
		{"smoothquant:alpha=x", "not a number"},
		{"smoothquant:alpha=0", "out of (0,1]"},
		{"llmint8:threshold=0", "must be > 0"},
		{"tender:alpha=1", "must be >= 2"},
		{"tender:groups=0", "must be >= 1"},
		{"tender:groups=-3", "must be >= 1"},
		{"tender:rowchunk=0", "use norowchunk"},
		{"tender:rowchunk=64,norowchunk", "rowchunk= with norowchunk"},
		{"tender:norowchunk,rowchunk=1", "rowchunk= with norowchunk"},
		{"uniform:dynamic=maybe", "not a boolean"},
		{"tender-int:int", "conflicts with alias"},
	}
	for _, c := range cases {
		_, err := Resolve(c.in, BuildOptions{})
		if err == nil {
			t.Fatalf("Resolve(%q) should fail", c.in)
		}
		if !strings.Contains(err.Error(), c.errLike) {
			t.Fatalf("Resolve(%q) error %q, want substring %q", c.in, err, c.errLike)
		}
	}
}

func TestSplitSpecList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"tender", []string{"tender"}},
		{"tender,fp16", []string{"tender", "fp16"}},
		{"tender:bits=4,int;fp16", []string{"tender:bits=4,int", "fp16"}},
		{"tender:bits=4,int fp16", []string{"tender:bits=4,int", "fp16"}},
		{"uniform:gran=column,dynamic,fp16", []string{"uniform:gran=column,dynamic", "fp16"}},
		{"tender-int,uniform-tensor", []string{"tender-int", "uniform-tensor"}},
		{"smoothquant:alpha=0.7,tender:groups=4,nobias", []string{"smoothquant:alpha=0.7", "tender:groups=4,nobias"}},
		{" ; tender ;; fp32 ", []string{"tender", "fp32"}},
	}
	for _, c := range cases {
		got, err := SplitSpecList(c.in)
		if err != nil {
			t.Fatalf("SplitSpecList(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("SplitSpecList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := SplitSpecList("bits=4,tender"); err == nil {
		t.Fatal("dangling option must fail")
	}
	if _, err := SplitSpecList("llmint8,threshold=5"); err == nil || !strings.Contains(err.Error(), "llmint8:threshold=5") {
		t.Fatalf("option after colon-less spec must suggest the ':' form, got %v", err)
	}
	// Case-insensitive like ParseSpec.
	got, err := SplitSpecList("FP16,Tender")
	if err != nil || len(got) != 2 {
		t.Fatalf("uppercase names must split: %v %v", got, err)
	}
	// Whitespace separates specs; it never continues an option list.
	if _, err := SplitSpecList("tender:bits=4 int"); err == nil {
		t.Fatal("non-scheme token after whitespace must fail, not merge as an option")
	}
}

func TestResolveAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"exact":          "fp32",
		"uniform-tensor": "uniform:gran=tensor",
		"uniform-column": "uniform:gran=column",
		"tender-int":     "tender:int",
	} {
		r, err := Resolve(alias, BuildOptions{})
		if err != nil {
			t.Fatalf("Resolve(%q): %v", alias, err)
		}
		if r.Spec.String() != want {
			t.Fatalf("alias %q resolved to %q, want %q", alias, r.Spec.String(), want)
		}
	}
	// Alias options merge with the expansion.
	r, err := Resolve("tender-int:groups=4", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	td := r.Scheme.(interface{ Name() string })
	if td.Name() != "Tender" || r.Spec.String() != "tender:int,groups=4" {
		t.Fatalf("alias option merge broken: %q", r.Spec.String())
	}
}

func TestResolveBitsOption(t *testing.T) {
	r, err := Resolve("tender:bits=4", BuildOptions{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits != 4 {
		t.Fatalf("spec bits must override default, got %d", r.Bits)
	}
	r, err = Resolve("tender", BuildOptions{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits != 4 {
		t.Fatalf("default bits not applied, got %d", r.Bits)
	}
}

// TestServingPositionIndependence: a serving build leaves Tender's row
// chunking off unless the spec names rowchunk=, and refuses every spec
// whose quantization depends on the rows sharing a call — at build time,
// by the row-independence audit, with model.ErrRowCoupled — while the
// offline build keeps them for the accuracy tables.
func TestServingPositionIndependence(t *testing.T) {
	r, err := Resolve("tender", BuildOptions{Serving: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Scheme.(schemes.Tender).NoRowChunk {
		t.Fatal("serving tender must disable row chunking")
	}
	r, err = Resolve("tender:rowchunk=64", BuildOptions{Serving: true})
	if err != nil || r.Scheme.(schemes.Tender).NoRowChunk {
		t.Fatalf("serving must keep an explicit rowchunk= for the audit to judge: %+v, %v", r, err)
	}
	m := model.New(model.TinyConfig())
	for _, spec := range []string{"tender:rowchunk=64", "msfp:ol", "uniform:gran=tensor,dynamic", "olive"} {
		_, err := BuildEngines(m, []string{"fp32", spec}, BuildOptions{Serving: true, Streams: 1, StreamLen: 16})
		key, _ := Canonical(spec)
		var rc *model.RowCoupledError
		if !errors.Is(err, model.ErrRowCoupled) || !errors.As(err, &rc) || rc.Spec != key {
			t.Fatalf("serving build of %q: %v, want model.ErrRowCoupled naming it", spec, err)
		}
		if _, err := BuildEngines(m, []string{spec}, BuildOptions{Streams: 1, StreamLen: 16}); err != nil {
			t.Fatalf("offline %q must build: %v", spec, err)
		}
	}
}
