package serve

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/workload"
)

func tinyTrace(m *model.Model, n int, seed uint64) []workload.RequestSpec {
	return workload.RequestTrace(workload.TraceConfig{
		Requests: n, Vocab: m.Cfg.Vocab,
		MinPrompt: 4, MaxPrompt: 12, MinNew: 2, MaxNew: 6,
	}, seed)
}

// buildEngines is the serving-context shorthand for engine.BuildEngines.
func buildEngines(m *model.Model, specs []string, opt engine.BuildOptions) (map[string]model.Engine, error) {
	opt.Serving = true
	return engine.BuildEngines(m, specs, opt)
}

// servableEngines builds each spec for serving on its own and returns the
// engines the build accepts and their specs, in order. It fails the test
// unless the build refuses exactly olive, with model.ErrRowCoupled.
func servableEngines(t *testing.T, m *model.Model, specs []string) (map[string]model.Engine, []string) {
	t.Helper()
	engines := make(map[string]model.Engine, len(specs))
	var served, refused []string
	for _, spec := range specs {
		built, err := buildEngines(m, []string{spec}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
		switch {
		case errors.Is(err, model.ErrRowCoupled):
			refused = append(refused, spec)
		case err != nil:
			t.Fatal(err)
		default:
			maps.Copy(engines, built)
			served = append(served, spec)
		}
	}
	if !slices.Equal(refused, []string{"olive"}) {
		t.Fatalf("serving build refused %v, want exactly [olive]", refused)
	}
	return engines, served
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv
}

// caseTrace converts a harness case into the load generator's shape.
func caseTrace(c identtest.Case) []workload.RequestSpec {
	trace := make([]workload.RequestSpec, len(c.Prompts))
	for i := range trace {
		trace[i] = workload.RequestSpec{Prompt: c.Prompts[i], NewTokens: c.NewTokens[i]}
	}
	return trace
}

// unbatchedRef is the serving suites' harness reference: the unbatched
// single-threaded decode path (which shares the server's per-request RNG
// derivation, unlike the model-level reference).
func unbatchedRef(t *testing.T, c identtest.Case) identtest.Output {
	return identtest.Output{Tokens: DecodeUnbatched(c.Model, c.Engine, caseTrace(c), c.Temp, c.SeedBase)}
}

// servePath runs a case's requests through a live server. mut customizes
// the config (nil = the default batched scheduler shape); check runs
// against the server after the load drains.
func servePath(engines map[string]model.Engine, mut func(*Config), check func(*testing.T, *Server)) identtest.Decoder {
	return func(t *testing.T, c identtest.Case) identtest.Output {
		cfg := Config{
			Model: c.Model, Engines: engines, DefaultScheme: c.Scheme,
			MaxBatch: 4, PrefillChunk: 3,
		}
		if mut != nil {
			mut(&cfg)
		}
		srv := startServer(t, cfg)
		rep := RunLoad(srv, LoadConfig{
			Trace: caseTrace(c), Clients: 4, Scheme: c.Scheme,
			Temperature: c.Temp, SeedBase: c.SeedBase,
		})
		if rep.Failed != 0 {
			t.Fatalf("%d requests failed", rep.Failed)
		}
		if check != nil {
			check(t, srv)
		}
		return identtest.Output{Tokens: rep.Outputs}
	}
}

// TestBatchedBitIdenticalEveryScheme is the core serving invariant: for
// every hosted scheme, the continuous-batching scheduler (batch ≥ 4,
// parallel workers, prefill chunks shorter than most prompts) produces
// exactly the tokens of the unbatched single-threaded decode path —
// greedy and sampled (the per-request seeded RNG makes sampled outputs
// batch-stable). Every registry scheme the serving build accepts runs in
// the matrix; it must refuse exactly row-coupled OliVe.
func TestBatchedBitIdenticalEveryScheme(t *testing.T) {
	m := model.New(model.TinyConfig())
	// Every canonical registry scheme plus the spec'd variants the old
	// name table carried (tender-int, uniform-tensor).
	engines, names := servableEngines(t, m, append(engine.SchemeNames(), "tender:int", "uniform:gran=tensor"))
	mut := func(cfg *Config) { cfg.PrefillChunk = 4 }
	check := func(t *testing.T, srv *Server) {
		if fused := srv.Metrics().Snapshot().FusedDecodeTokens; fused == 0 {
			t.Fatalf("%s: no fused decode tokens", srv.cfg.DefaultScheme)
		}
	}
	identtest.Matrix{
		Model: m, Engines: engines, Schemes: names,
		Temps: []float64{0, 0.8}, SeedBase: 7,
		Reference: unbatchedRef,
		Paths:     []identtest.Path{{Label: "batched", D: servePath(engines, mut, check)}},
	}.Run(t)
}

// TestMixedSchemeBatchesFused: one server hosting several engines decodes
// a mixed-scheme load by partitioning each iteration into per-engine fused
// groups; every request must still match its unbatched reference.
func TestMixedSchemeBatchesFused(t *testing.T) {
	m := model.New(model.TinyConfig())
	names := []string{"fp32", "tender", "llmint8"}
	engines, err := buildEngines(m, names, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	trace := tinyTrace(m, 8, 55)
	srv := startServer(t, Config{
		Model: m, Engines: engines, DefaultScheme: "fp32",
		MaxBatch: 8, PrefillChunk: 4,
	})
	outputs := make([][][]int, len(names))
	var wg sync.WaitGroup
	for si, name := range names {
		wg.Add(1)
		go func(si int, name string) {
			defer wg.Done()
			rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 2, Scheme: name, SeedBase: 9})
			if rep.Failed != 0 {
				t.Errorf("%s: %d requests failed", name, rep.Failed)
				return
			}
			outputs[si] = rep.Outputs
		}(si, name)
	}
	wg.Wait()
	if t.Failed() {
		return // a load goroutine already reported its failure
	}
	for si, name := range names {
		ref := DecodeUnbatched(m, engines[name], trace, 0, 9)
		identtest.Equal(t, name+" in mixed-scheme batch",
			identtest.Output{Tokens: outputs[si]}, identtest.Output{Tokens: ref})
	}
	if snap := srv.Metrics().Snapshot(); snap.FusedDecodeTokens == 0 {
		t.Fatal("mixed-scheme load never used the fused path")
	}
}

// TestNewRefusesRowCoupledEngine: New applies the row-independence audit
// to every hosted engine, so an engine the serving build would refuse —
// olive, built offline — is refused with model.ErrRowCoupled, naming it.
func TestNewRefusesRowCoupledEngine(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := engine.BuildEngines(m, []string{"fp32", "olive"}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Model: m, Engines: engines, DefaultScheme: "fp32"})
	var rc *model.RowCoupledError
	if !errors.Is(err, model.ErrRowCoupled) || !errors.As(err, &rc) || rc.Spec != "olive" {
		t.Fatalf("New with an offline olive engine: %v, want model.ErrRowCoupled naming olive", err)
	}
}

// TestConcurrentServersShareEngines: two servers fused-decoding over the
// same engine map (shared packed weights) stay race-free and bit-exact —
// the -race CI job runs this.
func TestConcurrentServersShareEngines(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"tender"}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	trace := tinyTrace(m, 6, 71)
	ref := DecodeUnbatched(m, engines["tender"], trace, 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv, err := New(Config{Model: m, Engines: engines, MaxBatch: 3})
			if err != nil {
				t.Error(err)
				return
			}
			srv.Start()
			defer srv.Stop()
			rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 3})
			if rep.Failed != 0 {
				t.Errorf("%d requests failed", rep.Failed)
				return
			}
			identtest.Equal(t, "concurrent servers",
				identtest.Output{Tokens: rep.Outputs}, identtest.Output{Tokens: ref})
		}()
	}
	wg.Wait()
}

// TestDeterministicAcrossCPUs: the full serving path (scheduler + worker
// pool + quantized engine) yields identical tokens at GOMAXPROCS 1 and 8.
func TestDeterministicAcrossCPUs(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"tender"}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	trace := tinyTrace(m, 8, 31)

	run := func() [][]int {
		srv := startServer(t, Config{Model: m, Engines: engines, MaxBatch: 4})
		rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 4, SeedBase: 3})
		if rep.Failed != 0 {
			t.Fatalf("%d requests failed", rep.Failed)
		}
		return rep.Outputs
	}

	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(8)
	multi := run()
	runtime.GOMAXPROCS(prev)

	for i := range one {
		if len(one[i]) != len(multi[i]) {
			t.Fatalf("request %d: %d vs %d tokens across GOMAXPROCS", i, len(one[i]), len(multi[i]))
		}
		for j := range one[i] {
			if one[i][j] != multi[i][j] {
				t.Fatalf("request %d token %d differs across GOMAXPROCS", i, j)
			}
		}
	}
}

// TestContinuousBatchingThroughput: a closed batch of requests queued
// together is served concurrently — more than one request per iteration,
// decode through the fused path — with no failures and exactly the tokens
// of the one-request-at-a-time baseline. Whether batching is faster is a
// wall-clock question for the benchmark, not for a unit test.
func TestContinuousBatchingThroughput(t *testing.T) {
	cfg := model.Config{
		Name: "serve-bench", Arch: model.Decoder, Layers: 4, DModel: 64, Heads: 4,
		FFN: 256, Vocab: 256, MaxSeq: 128,
		OutlierChannels: 3, OutlierGain: 20, Seed: 21,
	}
	m := model.New(cfg)
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	trace := workload.RequestTrace(workload.TraceConfig{
		Requests: 12, Vocab: cfg.Vocab,
		MinPrompt: 24, MaxPrompt: 32, MinNew: 8, MaxNew: 8,
	}, 5)
	ref := DecodeUnbatched(m, model.Exact{}, trace, 0, 0)
	srv, err := New(Config{
		Model: m, Engines: engines, MaxBatch: 8, QueueDepth: len(trace), PrefillChunk: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Preloading queues every request before the scheduler starts, so the
	// first iteration admits a full batch regardless of goroutine timing.
	outputs, snap := preloadAndRun(t, srv, trace, 0, 0)
	identtest.Equal(t, "batched vs serial",
		identtest.Output{Tokens: outputs}, identtest.Output{Tokens: ref})
	if snap.Completed != int64(len(trace)) {
		t.Fatalf("completed %d of %d requests", snap.Completed, len(trace))
	}
	if snap.MeanBatchSize <= 1 {
		t.Fatalf("mean batch %.2f; requests were never served together", snap.MeanBatchSize)
	}
	if snap.FusedDecodeTokens == 0 {
		t.Fatal("decode never ran through the fused path")
	}
}

// TestQueueBoundsDeadlinesCancellation covers the admission-control edges.
func TestQueueBoundsDeadlinesCancellation(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}

	t.Run("rejects-on-full-queue", func(t *testing.T) {
		srv, err := New(Config{Model: m, Engines: engines, MaxBatch: 1, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Not started: the queue fills synchronously.
		queued := submitAll(t, srv, []Request{{Prompt: []int{1, 2}, MaxNewTokens: 1}})
		if _, err := srv.Generate(context.Background(), Request{Prompt: []int{1}, MaxNewTokens: 1}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("want ErrQueueFull, got %v", err)
		}
		if srv.Metrics().Snapshot().Rejected != 1 {
			t.Fatal("rejection not counted")
		}
		srv.Start()
		srv.Stop()
		if r := <-queued[0].done; !errors.Is(r.Err, ErrStopped) && r.Err != nil {
			t.Fatalf("queued request across Stop: %v", r.Err)
		}
	})

	t.Run("expired-deadline", func(t *testing.T) {
		srv := startServer(t, Config{Model: m, Engines: engines})
		_, err := srv.Generate(context.Background(), Request{
			Prompt: []int{1, 2, 3}, MaxNewTokens: 4,
			Deadline: time.Now().Add(-time.Second),
		})
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("want ErrDeadlineExceeded, got %v", err)
		}
		if srv.Metrics().Snapshot().Expired != 1 {
			t.Fatal("expiry not counted")
		}
	})

	t.Run("cancelled-context", func(t *testing.T) {
		srv := startServer(t, Config{Model: m, Engines: engines})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := srv.Generate(ctx, Request{Prompt: []int{1}, MaxNewTokens: 2})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})

	t.Run("input-validation", func(t *testing.T) {
		srv := startServer(t, Config{Model: m, Engines: engines})
		if _, err := srv.Generate(context.Background(), Request{Prompt: []int{1}, Scheme: "nope"}); !errors.Is(err, ErrUnknownScheme) {
			t.Fatalf("want ErrUnknownScheme, got %v", err)
		}
		if _, err := srv.Generate(context.Background(), Request{}); err == nil {
			t.Fatal("empty prompt must fail")
		}
		long := make([]int, m.Cfg.MaxSeq+1)
		if _, err := srv.Generate(context.Background(), Request{Prompt: long}); err == nil {
			t.Fatal("over-length prompt must fail")
		}
	})
}

// TestMetricsAccounting: decode token counters agree with delivered
// outputs, and the per-scheme split adds up.
func TestMetricsAccounting(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"fp32", "fp16"}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{
		Model: m, Engines: engines, DefaultScheme: "fp32", MaxBatch: 4,
	})
	trace := tinyTrace(m, 4, 77)
	repA := RunLoad(srv, LoadConfig{Trace: trace, Clients: 2, Scheme: "fp32"})
	repB := RunLoad(srv, LoadConfig{Trace: trace, Clients: 2, Scheme: "fp16"})
	snap := srv.Metrics().Snapshot()
	want := repA.DecodeTokens + repB.DecodeTokens
	if snap.DecodeTokens != want {
		t.Fatalf("decode tokens %d, want %d", snap.DecodeTokens, want)
	}
	if snap.PerScheme["fp32"] != repA.DecodeTokens || snap.PerScheme["fp16"] != repB.DecodeTokens {
		t.Fatalf("per-scheme split %v", snap.PerScheme)
	}
	if snap.Completed != int64(2*len(trace)) {
		t.Fatalf("completed %d, want %d", snap.Completed, 2*len(trace))
	}
	if snap.MeanBatchSize <= 0 || snap.Iterations <= 0 {
		t.Fatalf("batch occupancy not recorded: %+v", snap)
	}
	if h := snap.LatencyHist; h.Count != snap.Completed || h.P99Ms < h.P95Ms || h.P95Ms < h.P50Ms {
		t.Fatalf("latency histogram %+v: want one sample per completion and monotone quantiles", h)
	}
}

// TestPrefillChunking: a prompt longer than the chunk size spans several
// iterations and still decodes exactly like the unbatched path.
func TestPrefillChunking(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	trace := []workload.RequestSpec{{
		Prompt:    workload.TokenStream(workload.Wiki, 3, 30, m.Cfg.Vocab),
		NewTokens: 4,
	}}
	ref := DecodeUnbatched(m, model.Exact{}, trace, 0, 0)
	srv := startServer(t, Config{Model: m, Engines: engines, PrefillChunk: 4})
	rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 1})
	if rep.Failed != 0 {
		t.Fatal("request failed")
	}
	identtest.Equal(t, "chunked prefill",
		identtest.Output{Tokens: rep.Outputs}, identtest.Output{Tokens: ref})
	if rep.PrefillTokens != 30 {
		t.Fatalf("prefill tokens %d, want 30", rep.PrefillTokens)
	}
}

// TestLongCalibrationBitIdentical guards the position-independence
// precondition: with calibration streams longer than tender's default row
// chunk (256) and a long chunked prefill, the scheduler must still match
// the one-shot unbatched decode exactly.
func TestLongCalibrationBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := model.New(model.Registry("opt-6.7b"))
	engines, err := buildEngines(m, []string{"tender"}, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.RequestSpec{{
		Prompt:    workload.TokenStream(workload.Wiki, 17, 300, m.Cfg.Vocab),
		NewTokens: 3,
	}}
	ref := DecodeUnbatched(m, engines["tender"], trace, 0, 0)
	srv := startServer(t, Config{Model: m, Engines: engines, PrefillChunk: 32})
	rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 1})
	if rep.Failed != 0 {
		t.Fatal("request failed")
	}
	identtest.Equal(t, "long-calibration chunked prefill",
		identtest.Output{Tokens: rep.Outputs}, identtest.Output{Tokens: ref})
}

// TestStopRaces: requests racing with Stop never hang — they resolve with
// either the scheduler's verdict or ErrStopped, and Generate after Stop
// returns promptly.
func TestStopRaces(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	srv, err := New(Config{Model: m, Engines: engines, MaxBatch: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	req := Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 40}
	type outcome struct {
		res Result
		err error
	}
	results := make(chan outcome, 8)
	for i := 0; i < 8; i++ {
		go func() {
			r, err := srv.Generate(context.Background(), req)
			results <- outcome{r, err}
		}()
	}
	srv.Stop()
	for i := 0; i < 8; i++ {
		select {
		case o := <-results:
			if o.err != nil && !errors.Is(o.err, ErrStopped) && !errors.Is(o.err, ErrQueueFull) {
				t.Fatalf("unexpected error %v", o.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Generate hung across Stop")
		}
	}
	if _, err := srv.Generate(context.Background(), req); !errors.Is(err, ErrStopped) {
		t.Fatalf("Generate after Stop: want ErrStopped, got %v", err)
	}
}
