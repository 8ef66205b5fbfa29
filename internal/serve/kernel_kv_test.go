package serve

import (
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// TestKVDtypeFusedMatchesPerRequest: under a compressed KV dtype the stored
// keys/values carry quantization error, so tokens may differ from the f64
// store — but the batched scheduler (chunked prefill, fused decode) must
// still be bit-identical to sequential per-request decode over the same
// dtype (decode is a pure function of the stored codes, and both read the
// same codes in the same order).
func TestKVDtypeFusedMatchesPerRequest(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"fp32", "tender:int"}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	trace := tinyTrace(m, 6, 23)
	for _, dtype := range []string{"f16", "int8"} {
		for _, scheme := range []string{"fp32", "tender:int"} {
			t.Run(dtype+"/"+scheme, func(t *testing.T) {
				srv := startServer(t, Config{
					Model: m, Engines: engines, DefaultScheme: scheme,
					MaxBatch: 4, PrefillChunk: 4, KVDtype: dtype,
				})
				rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 4, Scheme: scheme})
				if rep.Failed != 0 {
					t.Fatalf("%d requests failed", rep.Failed)
				}
				dt, err := tensor.ParseKVDtype(dtype)
				if err != nil {
					t.Fatal(err)
				}
				pool := tensor.NewBlockPoolDtype(m.Cfg.DModel, tensor.DefaultPageRows, 0, dt)
				ref := decodeUnbatched(m, trace, 0, 0, func(int) *model.Session {
					return m.NewSessionWithKV(engines[scheme], func() model.KVStore { return tensor.NewPagedRows(pool, 0) })
				})
				identtest.Equal(t, "batched vs per-request under "+dtype,
					identtest.Output{Tokens: rep.Outputs}, identtest.Output{Tokens: ref})
				snap := srv.Metrics().Snapshot()
				if snap.FusedDecodeTokens == 0 {
					t.Fatal("fused path never engaged")
				}
				if snap.KVDtype != dtype {
					t.Fatalf("metrics report dtype %q, want %q", snap.KVDtype, dtype)
				}
			})
		}
	}
}

// TestKVDtypeStretchesBudget: KVBudgetRows is denominated in f64-equivalent
// rows (provisioned bytes), so a compressed dtype must multiply the
// effective position capacity by the per-row byte ratio — 4× for f16 at any
// d_model, and the metrics must expose the effective rows and dtype. Under
// load the stretched budget must turn into concurrency: one trace served at
// the same byte budget peaks at ≥ 2× the sessions with f16 pages as with f64.
func TestKVDtypeStretchesBudget(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	base := Config{Model: m, Engines: engines, MaxBatch: 16, QueueDepth: 16, KVBudgetRows: 64, KVPageRows: 16}

	cfg := base
	srvF64, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.KVDtype = "f16"
	srvF16, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f64Rows := srvF64.Metrics().Snapshot().KVBudgetRows
	f16Rows := srvF16.Metrics().Snapshot().KVBudgetRows
	if f16Rows != 4*f64Rows {
		t.Fatalf("f16 effective budget %d, want 4× %d", f16Rows, f64Rows)
	}
	d := m.Cfg.DModel
	if bpr := srvF16.Metrics().Snapshot().KVBytesPerRow; bpr != tensor.KVF16.BytesPerRow(d) {
		t.Fatalf("f16 bytes per row %d", bpr)
	}
	trace := make([]workload.RequestSpec, 12) // one page each; f64 fits 4
	for i := range trace {
		trace[i] = workload.RequestSpec{
			Prompt:    workload.TokenStream(workload.PTB, 40+uint64(i), 8, m.Cfg.Vocab),
			NewTokens: 4,
		}
	}
	_, f64Snap := preloadAndRun(t, srvF64, trace, 0, 5)
	_, f16Snap := preloadAndRun(t, srvF16, trace, 0, 5)
	if f64Snap.PeakActiveSessions <= 0 || f16Snap.PeakActiveSessions < 2*f64Snap.PeakActiveSessions {
		t.Fatalf("f16 KV peaked at %d sessions vs f64 %d; want ≥ 2× under the same byte budget",
			f16Snap.PeakActiveSessions, f64Snap.PeakActiveSessions)
	}

	cfg = base
	cfg.KVDtype = "int8"
	srvInt8, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	int8Rows := srvInt8.Metrics().Snapshot().KVBudgetRows
	want := pageRoundUp(64*tensor.KVF64.BytesPerRow(d)/tensor.KVInt8.BytesPerRow(d), 16)
	if int8Rows != want {
		t.Fatalf("int8 effective budget %d, want %d", int8Rows, want)
	}

	cfg = base
	cfg.KVDtype = "f32"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown dtype must be rejected")
	}
}

// TestKernelBlockedServingBitIdentical: serving fp16 under kernel=blocked
// — the blocked float GEMM backend — must produce exactly the tokens of
// DecodeUnbatched on the same engine. The blocked kernel's per-element
// accumulation order is fixed and independent of the rows stacked beside
// it, so fused batching and chunked prefill cannot change a bit.
func TestKernelBlockedServingBitIdentical(t *testing.T) {
	const spec = "fp16:kernel=blocked"
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{spec},
		engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	trace := tinyTrace(m, 6, 31)
	ref := DecodeUnbatched(m, engines[spec], trace, 0, 5)
	srv := startServer(t, Config{
		Model: m, Engines: engines, DefaultScheme: spec,
		MaxBatch: 4, PrefillChunk: 4,
	})
	rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 4, Scheme: spec, SeedBase: 5})
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed", rep.Failed)
	}
	identtest.Equal(t, "blocked kernel served vs unbatched",
		identtest.Output{Tokens: rep.Outputs}, identtest.Output{Tokens: ref})
	if srv.Metrics().Snapshot().FusedDecodeTokens == 0 {
		t.Fatal("fused path never engaged for " + spec)
	}
}
