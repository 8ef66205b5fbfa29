package serve

import (
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
)

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
