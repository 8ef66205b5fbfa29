package tender_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"tender/internal/engine"
	"tender/internal/experiments"
	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/quant"
	"tender/internal/router"
	"tender/internal/schemes"
	"tender/internal/serve"
	"tender/internal/sim/accel"
	"tender/internal/sim/dram"
	"tender/internal/sim/systolic"
	"tender/internal/tender"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// quick are the reduced-size options used by the per-table benchmarks so
// `go test -bench=.` regenerates every experiment's shape in minutes; run
// cmd/tenderbench (without -quick) for full fidelity.
var quick = experiments.Options{Quick: true}

func benchTable(b *testing.B, f func(experiments.Options) experiments.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := f(quick)
		t.Render(io.Discard)
	}
}

// One benchmark per table and figure of the paper's evaluation.

func BenchmarkTableI(b *testing.B)   { benchTable(b, experiments.TableI) }
func BenchmarkTableII(b *testing.B)  { benchTable(b, experiments.TableII) }
func BenchmarkTableIII(b *testing.B) { benchTable(b, experiments.TableIII) }
func BenchmarkTableIV(b *testing.B)  { benchTable(b, experiments.TableIV) }
func BenchmarkTableV(b *testing.B)   { benchTable(b, experiments.TableV) }
func BenchmarkTableVI(b *testing.B)  { benchTable(b, experiments.TableVI) }
func BenchmarkTableVII(b *testing.B) { benchTable(b, experiments.TableVII) }
func BenchmarkFigure9(b *testing.B)  { benchTable(b, experiments.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchTable(b, experiments.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchTable(b, experiments.Figure11) }
func BenchmarkFigure12(b *testing.B) { benchTable(b, experiments.Figure12) }
func BenchmarkFigure13(b *testing.B) { benchTable(b, experiments.Figure13) }
func BenchmarkFigure23(b *testing.B) { benchTable(b, experiments.Figure23Stats) }

// Ablation benchmarks for the §III design choices the README paper map names.

func BenchmarkAblationAlpha(b *testing.B)      { benchTable(b, experiments.AblationAlpha) }
func BenchmarkAblationRowChunk(b *testing.B)   { benchTable(b, experiments.AblationRowChunk) }
func BenchmarkAblationBias(b *testing.B)       { benchTable(b, experiments.AblationBias) }
func BenchmarkAblationClustering(b *testing.B) { benchTable(b, experiments.AblationClustering) }
func BenchmarkAblationBits(b *testing.B)       { benchTable(b, experiments.AblationBits) }
func BenchmarkAblationDataflow(b *testing.B)   { benchTable(b, experiments.AblationDataflow) }

// BenchmarkServeThroughput measures the continuous-batching server's
// decode throughput on a fixed closed-loop trace (batch 8); b.N scales the
// number of load rounds. Serving speed end to end, with paired runs, is
// measured by perfbench (bash perfbench/run.sh).
func BenchmarkServeThroughput(b *testing.B) {
	m := model.New(model.Registry("opt-6.7b"))
	engines, err := engine.BuildEngines(m, []string{"tender"}, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 64, Serving: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.RequestTrace(workload.TraceConfig{
		Requests: 16, Vocab: m.Cfg.Vocab,
		MinPrompt: 16, MaxPrompt: 32, MinNew: 8, MaxNew: 8,
	}, 1)
	srv, err := serve.New(serve.Config{Model: m, Engines: engines, MaxBatch: 8, PrefillChunk: 16})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	var decoded int64
	for i := 0; i < b.N; i++ {
		rep := serve.RunLoad(srv, serve.LoadConfig{Trace: trace, Clients: 8})
		if rep.Failed > 0 {
			b.Fatalf("%d requests failed", rep.Failed)
		}
		decoded += rep.DecodeTokens
	}
	b.ReportMetric(float64(decoded)/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkFusedDecode compares steady-state decode throughput of the
// fused batched step (one forward pass per iteration across all sessions,
// model.BatchStepper) against the per-request path (one Session.Append per
// session per iteration) at batch 8, for the FP32 reference and the
// Tender engines. Sessions are rebuilt outside the timer every cycle so
// the KV length stays bounded and comparable between the two paths.
func BenchmarkFusedDecode(b *testing.B) {
	m := model.New(model.Registry("opt-6.7b"))
	specs := []string{"fp32", "tender", "tender:int"}
	engines, err := engine.BuildEngines(m, specs, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 64, Serving: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 8
	const cycle = 128 // decode steps per session lifetime
	prompt := workload.TokenStream(workload.Wiki, 5, 32, m.Cfg.Vocab)
	for _, spec := range specs {
		eng := engines[spec]
		build := func() ([]*model.Session, []int) {
			sessions := make([]*model.Session, batch)
			last := make([]int, batch)
			for i := range sessions {
				sessions[i] = m.NewSession(eng, len(prompt)+cycle+1)
				lg := sessions[i].Append(prompt)
				last[i] = model.Greedy(lg.Row(lg.Rows - 1))
			}
			return sessions, last
		}
		var perReq, fused float64 // tokens/s
		b.Run(spec+"/per-request", func(b *testing.B) {
			b.ReportAllocs()
			sessions, last := build()
			steps := 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if steps == cycle {
					b.StopTimer()
					sessions, last = build()
					steps = 0
					b.StartTimer()
				}
				for i, s := range sessions {
					last[i] = model.Greedy(s.Append([]int{last[i]}).Row(0))
				}
				steps++
			}
			perReq = float64(b.N*batch) / b.Elapsed().Seconds()
			b.ReportMetric(perReq, "tokens/s")
		})
		b.Run(spec+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			bs, err := m.NewBatchStepper(eng)
			if err != nil {
				b.Fatal(err)
			}
			sessions, last := build()
			steps := 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if steps == cycle {
					b.StopTimer()
					sessions, last = build()
					steps = 0
					b.StartTimer()
				}
				logits := bs.Step(sessions, last)
				for i := range sessions {
					last[i] = model.Greedy(logits.Row(i))
				}
				steps++
			}
			fused = float64(b.N*batch) / b.Elapsed().Seconds()
			b.ReportMetric(fused, "tokens/s")
		})
		if perReq > 0 && fused > 0 {
			b.Logf("%s: fused decode %.2fx the per-request path (%.0f vs %.0f tokens/s at batch %d, GOMAXPROCS=%d)",
				spec, fused/perReq, fused, perReq, batch, runtime.GOMAXPROCS(0))
		}
	}
}

// BenchmarkDecodeAllocs gates the fused hot path's allocation diet: with
// the FP32 engine (EngineInto + arena) steady-state fused decode must do
// ~zero heap allocations per token. The model is sized below the GEMM
// parallel threshold so the kernel spawns no goroutines — every remaining
// allocation would be a real hot-path regression.
func BenchmarkDecodeAllocs(b *testing.B) {
	cfg := model.Config{
		Name: "alloc-bench", Arch: model.Decoder, Layers: 4, DModel: 64, Heads: 4,
		FFN: 256, Vocab: 256, MaxSeq: 256,
		OutlierChannels: 3, OutlierGain: 20, Seed: 33,
	}
	m := model.New(cfg)
	eng := model.Exact{}
	bs, err := m.NewBatchStepper(eng)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4
	const cycle = 128
	prompt := workload.TokenStream(workload.Wiki, 9, 16, cfg.Vocab)
	build := func() ([]*model.Session, []int) {
		sessions := make([]*model.Session, batch)
		last := make([]int, batch)
		for i := range sessions {
			sessions[i] = m.NewSession(eng, len(prompt)+cycle+1)
			lg := sessions[i].Append(prompt)
			last[i] = model.Greedy(lg.Row(lg.Rows - 1))
		}
		return sessions, last
	}
	// Warm the arena, then measure steady-state allocations per step.
	sessions, last := build()
	for i := 0; i < 5; i++ {
		logits := bs.Step(sessions, last)
		for j := range sessions {
			last[j] = model.Greedy(logits.Row(j))
		}
	}
	allocsPerStep := testing.AllocsPerRun(100, func() {
		logits := bs.Step(sessions, last)
		for j := range sessions {
			last[j] = model.Greedy(logits.Row(j))
		}
	})
	allocsPerToken := allocsPerStep / batch
	b.Logf("fused fp32 decode: %.3f allocs/token (batch %d)", allocsPerToken, batch)
	if allocsPerToken > 0.5 {
		b.Fatalf("fused fp32 decode allocates %.2f times per token; want ~0", allocsPerToken)
	}
	sessions, last = build()
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if steps == cycle {
			b.StopTimer()
			sessions, last = build()
			steps = 0
			b.StartTimer()
		}
		logits := bs.Step(sessions, last)
		for j := range sessions {
			last[j] = model.Greedy(logits.Row(j))
		}
		steps++
	}
}

// BenchmarkPagedDecode gates the paged KV cache's allocation diet: fused
// FP32 decode over sessions drawing pages from a warm shared
// tensor.BlockPool must stay at ~zero heap allocations per token — page
// turnover (acquire on growth, release on session end) has to come from
// the pool's freelist, not the garbage collector.
func BenchmarkPagedDecode(b *testing.B) {
	cfg := model.Config{
		Name: "alloc-bench", Arch: model.Decoder, Layers: 4, DModel: 64, Heads: 4,
		FFN: 256, Vocab: 256, MaxSeq: 256,
		OutlierChannels: 3, OutlierGain: 20, Seed: 33,
	}
	m := model.New(cfg)
	eng := model.Exact{}
	bs, err := m.NewBatchStepper(eng)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4
	const cycle = 128
	pool := tensor.NewBlockPool(cfg.DModel, tensor.DefaultPageRows, 0)
	prompt := workload.TokenStream(workload.Wiki, 9, 16, cfg.Vocab)
	var live []*model.Session
	build := func() ([]*model.Session, []int) {
		for _, s := range live {
			s.ReleaseKV() // pages go back to the pool, as in serving
		}
		sessions := make([]*model.Session, batch)
		last := make([]int, batch)
		for i := range sessions {
			sessions[i] = m.NewSessionWithKV(eng, func() model.KVStore {
				return tensor.NewPagedRows(pool, len(prompt)+cycle+1)
			})
			lg := sessions[i].Append(prompt)
			last[i] = model.Greedy(lg.Row(lg.Rows - 1))
		}
		live = sessions
		return sessions, last
	}
	// Warm the arena and the page pool (one cycle creates every page the
	// steady state needs), then measure from recycled pages only.
	sessions, last := build()
	for i := 0; i < cycle; i++ {
		logits := bs.Step(sessions, last)
		for j := range sessions {
			last[j] = model.Greedy(logits.Row(j))
		}
	}
	sessions, last = build()
	allocsBefore, _ := pool.Counters()
	allocsPerStep := testing.AllocsPerRun(100, func() {
		logits := bs.Step(sessions, last)
		for j := range sessions {
			last[j] = model.Greedy(logits.Row(j))
		}
	})
	allocsAfter, _ := pool.Counters()
	allocsPerToken := allocsPerStep / batch
	b.Logf("fused fp32 paged decode: %.3f heap allocs/token, %d pool page acquisitions (batch %d, page %d rows)",
		allocsPerToken, allocsAfter-allocsBefore, batch, tensor.DefaultPageRows)
	if allocsPerToken > 0.5 {
		b.Fatalf("paged fused decode allocates %.2f times per token; pages must come from the pool, not the GC", allocsPerToken)
	}
	if allocsAfter == allocsBefore {
		b.Fatal("paged decode never acquired a page; the gate is not measuring paging")
	}
	sessions, last = build()
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if steps == cycle {
			b.StopTimer()
			sessions, last = build()
			steps = 0
			b.StartTimer()
		}
		logits := bs.Step(sessions, last)
		for j := range sessions {
			last[j] = model.Greedy(logits.Row(j))
		}
		steps++
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkObsOverhead measures what lifecycle tracing costs on the
// serving decode path: the same closed-loop load with the tracer off
// (the default — every Record is one nil check) and on (ring writes per
// state transition), reported as off/on tokens/s and overhead-%; the
// budget is <3%.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := model.Config{
		Name: "alloc-bench", Arch: model.Decoder, Layers: 4, DModel: 64, Heads: 4,
		FFN: 256, Vocab: 256, MaxSeq: 256,
		OutlierChannels: 3, OutlierGain: 20, Seed: 33,
	}
	m := model.New(cfg)
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	trace := workload.RequestTrace(workload.TraceConfig{
		Requests: 16, Vocab: cfg.Vocab,
		MinPrompt: 16, MaxPrompt: 32, MinNew: 16, MaxNew: 16,
	}, 3)
	mkServer := func(tracer *obs.Tracer) *serve.Server {
		srv, err := serve.New(serve.Config{
			Model: m, Engines: engines, MaxBatch: 4, PrefillChunk: 8,
			Tracer: tracer,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		// Warm-up pass so neither variant pays scheduler and arena
		// cold-start inside the timed loop.
		serve.RunLoad(srv, serve.LoadConfig{Trace: trace, Clients: 4})
		return srv
	}
	srvOff := mkServer(nil)
	defer srvOff.Stop()
	srvOn := mkServer(obs.NewTracer(1 << 16))
	defer srvOn.Stop()
	// The two variants are interleaved within every iteration so clock
	// drift and scheduling noise hit both equally; comparing back-to-back
	// sub-benchmarks proved noisier than the effect being measured.
	timedLoad := func(srv *serve.Server, dur *time.Duration, decoded *int64) {
		t0 := time.Now()
		rep := serve.RunLoad(srv, serve.LoadConfig{Trace: trace, Clients: 4})
		*dur += time.Since(t0)
		if rep.Failed > 0 {
			b.Fatalf("%d requests failed", rep.Failed)
		}
		*decoded += rep.DecodeTokens
	}
	var offDur, onDur time.Duration
	var offTok, onTok int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timedLoad(srvOff, &offDur, &offTok)
		timedLoad(srvOn, &onDur, &onTok)
	}
	b.StopTimer()
	if offDur > 0 && onDur > 0 {
		off := float64(offTok) / offDur.Seconds()
		on := float64(onTok) / onDur.Seconds()
		pct := (off - on) / off * 100
		b.ReportMetric(off, "off-tokens/s")
		b.ReportMetric(on, "on-tokens/s")
		b.ReportMetric(pct, "overhead-%")
	}
}

// BenchmarkPrefixCache measures what a prefix-cache hit saves on the
// prefill hot path: building a session for a prompt whose long shared
// prefix is cached (mount + 1-token tail prefill, the serving hit path)
// against cold-prefilling the whole prompt, and logs the speedup.
func BenchmarkPrefixCache(b *testing.B) {
	cfg := model.Config{
		Name: "prefix-bench", Arch: model.Decoder, Layers: 4, DModel: 64, Heads: 4,
		FFN: 256, Vocab: 256, MaxSeq: 256,
		OutlierChannels: 3, OutlierGain: 20, Seed: 33,
	}
	m := model.New(cfg)
	eng := model.Exact{}
	pool := tensor.NewBlockPool(cfg.DModel, tensor.DefaultPageRows, 0)
	newKV := func() model.KVStore { return tensor.NewPagedRows(pool, 0) }
	prompt := workload.TokenStream(workload.Wiki, 5, 96+1, cfg.Vocab)

	donor := m.NewSessionWithKV(eng, newKV)
	donor.Append(prompt)
	cache := model.NewPrefixCache(pool, cfg.Layers, 0)
	if _, _, ok := cache.Insert(prompt, donor, 1<<30); !ok {
		b.Fatal("prefix insert failed")
	}

	var cold, hit float64 // ns per first-token prefill
	b.Run("cold-prefill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := m.NewSessionWithKV(eng, newKV)
			s.Append(prompt)
			s.ReleaseKV()
		}
		cold = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("prefix-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := cache.Acquire(prompt)
			if e == nil {
				b.Fatal("prefix miss")
			}
			s := m.NewSessionWithPrefix(eng, newKV, e)
			s.Append(prompt[e.Rows():])
			s.ReleaseKV()
			cache.Release(e)
		}
		hit = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if cold > 0 && hit > 0 {
		ratio := cold / hit
		b.Logf("prefix hit prefill %.1fx faster than cold (%0.fns vs %0.fns, %d-token prompt, %d cached rows)",
			ratio, hit, cold, len(prompt), len(prompt)-1)
	}
	donor.ReleaseKV()
	cache.Flush()
	if pool.InUse() != 0 {
		b.Fatalf("%d pages leaked by the benchmark", pool.InUse())
	}
}

// BenchmarkPreparedDecode quantifies the compile-once engine API on the
// decode hot path: a single-token step (1×d activation) against a d×4d
// projection, comparing Apply against a prepared weight pack (what the
// serving engines do) with re-packing the weights every call (the
// pre-redesign behaviour of the weight-heavy schemes), and logs the
// speedup per scheme.
func BenchmarkPreparedDecode(b *testing.B) {
	const d = 256
	x := workload.OPT67BAttentionInput(64, d, 1)
	rng := tensor.NewRNG(2)
	w := tensor.RandNormal(rng, d, 4*d, 0.05)
	xdec := x.RowView(0, 1) // one decode-step row
	for _, spec := range []string{"smoothquant", "llmint8"} {
		r, err := engine.Resolve(spec, engine.BuildOptions{Bits: 8})
		if err != nil {
			b.Fatal(err)
		}
		kernel := r.Scheme.NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, r.Bits)
		packed := kernel.PrepareWeights(w)
		var prepared, percall float64 // ns/op of the final (reported) run
		b.Run(spec+"/prepared", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel.Apply(xdec, packed)
			}
			prepared = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		b.Run(spec+"/requantize-per-call", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				schemes.MatMul(kernel, xdec, w)
			}
			percall = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		if prepared > 0 && percall > 0 {
			ratio := percall / prepared
			b.Logf("%s: prepare-once decode %.1fx faster (%.0fns vs %.0fns per step)",
				spec, ratio, prepared, percall)
		}
	}
}

// Micro-benchmarks of the core kernels.

func gemmFixtures() (*tensor.Matrix, *tensor.Matrix) {
	x := workload.OPT67BAttentionInput(256, 512, 1)
	rng := tensor.NewRNG(2)
	w := tensor.RandNormal(rng, 512, 256, 0.05)
	return x, w
}

func BenchmarkTenderCalibrate(b *testing.B) {
	x, _ := gemmFixtures()
	cfg := tender.DefaultConfig(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tender.Calibrate([]*tensor.Matrix{x}, cfg)
	}
}

func BenchmarkTenderImplicitGEMM(b *testing.B) {
	x, w := gemmFixtures()
	cfg := tender.DefaultConfig(8)
	cal := tender.Calibrate([]*tensor.Matrix{x}, cfg)
	qw := tender.QuantizeWeights(w, cfg.Bits)
	wf := qw.Dequantize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cal.MatMulImplicit(x, qw, wf)
	}
}

func BenchmarkTenderExplicitGEMM(b *testing.B) {
	x, w := gemmFixtures()
	cfg := tender.DefaultConfig(8)
	cal := tender.Calibrate([]*tensor.Matrix{x}, cfg)
	qw := tender.QuantizeWeights(w, cfg.Bits)
	wf := qw.Dequantize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cal.MatMulExplicit(x, qw, wf)
	}
}

func BenchmarkTenderFakeQuantGEMM(b *testing.B) {
	x, w := gemmFixtures()
	cfg := tender.DefaultConfig(8)
	cal := tender.Calibrate([]*tensor.Matrix{x}, cfg)
	qw := tender.QuantizeWeights(w, cfg.Bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cal.FakeQuantMatMul(x, qw)
	}
}

func BenchmarkFloatGEMM(b *testing.B) {
	x, w := gemmFixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}

func BenchmarkUniformFakeQuant(b *testing.B) {
	x, _ := gemmFixtures()
	cfg := quant.Config{Bits: 8, Gran: quant.PerColumn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.FakeQuant(x, cfg)
	}
}

func BenchmarkSmoothQuantSite(b *testing.B) {
	x, w := gemmFixtures()
	s := schemes.Tender{}
	site := s.NewSite([]*tensor.Matrix{x}, []*tensor.Matrix{w}, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schemes.MatMul(site, x, w)
	}
}

func BenchmarkSystolicArray32(b *testing.B) {
	rng := tensor.NewRNG(3)
	x := make([][]int8, 32)
	for i := range x {
		x[i] = make([]int8, 64)
		for j := range x[i] {
			x[i][j] = int8(rng.Intn(15) - 7)
		}
	}
	w := make([][]int8, 64)
	for i := range w {
		w[i] = make([]int8, 32)
		for j := range w[i] {
			w[i][j] = int8(rng.Intn(15) - 7)
		}
	}
	groups := make([][]int, 4)
	for c := 0; c < 64; c++ {
		groups[c%4] = append(groups[c%4], c)
	}
	plan := systolic.PrepareGrouped(x, w, groups)
	arr := systolic.New(32, 32, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Run(plan)
	}
}

func BenchmarkDRAMStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := dram.New(dram.HBM2())
		m.StreamCycles(0, 1<<16)
	}
}

func BenchmarkAccelModelRun(b *testing.B) {
	cfg := accel.Tender(4, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		accel.RunModel(cfg, "opt-6.7b", 512)
	}
}

// BenchmarkRouterThroughput measures aggregate decode throughput of the
// prefix-affinity router over three sharded replicas on a prefix-grouped
// multi-tenant trace; b.N scales the number of load rounds. Routing
// correctness (affinity, failover, the chaos soak) is checked by the
// router package's tests.
func BenchmarkRouterThroughput(b *testing.B) {
	m := model.New(model.Registry("opt-6.7b"))
	engines, err := engine.BuildEngines(m, []string{"fp32"}, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 64, Serving: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.PrefixGroupedTrace(workload.PrefixGroupConfig{
		Groups: 4, RequestsPerGroup: 4,
		PrefixTokens: 32, TailTokens: 8, NewTokens: 8, Vocab: m.Cfg.Vocab,
	}, 1)
	const replicas = 3
	var members []router.Replica
	for i := 0; i < replicas; i++ {
		srv, err := serve.New(serve.Config{
			Model: m, Engines: engines, MaxBatch: 8, QueueDepth: len(trace),
			PrefillChunk: 16, KVPageRows: tensor.DefaultPageRows, PrefixCache: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		defer srv.Stop()
		members = append(members, router.Replica{
			ID: fmt.Sprintf("r%d", i), Backend: router.InProc{Srv: srv},
		})
	}
	rt, err := router.New(router.Config{Replicas: members, Policy: router.PolicyAffinity})
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	var decoded int64
	for i := 0; i < b.N; i++ {
		rep := serve.RunLoad(rt, serve.LoadConfig{Trace: trace, Clients: 4})
		if rep.Failed > 0 {
			b.Fatalf("%d requests failed", rep.Failed)
		}
		decoded += rep.DecodeTokens
	}
	b.StopTimer()
	b.ReportMetric(float64(decoded)/b.Elapsed().Seconds(), "tokens/s")
	if rate, ok := rt.Snapshot().AggregatePrefixHitRate(); ok {
		b.ReportMetric(rate, "hit-rate")
	}
}

// Kernel-backend benchmarks: the naive reference float GEMM against the
// register-tiled, cache-blocked backend (AVX2+FMA micro-kernel on amd64,
// pure-Go tiling elsewhere). The naive float path keeps its zero-skip
// fast-path for sparse operands (see tensor.MatMul); the blocked backend
// deliberately drops it — dense decode activations are never zero-rich
// enough to pay back the branch, which is exactly what this benchmark
// documents when comparing the two on dense fixtures.

var benchSink float64

func BenchmarkBlockedGEMM(b *testing.B) {
	x, w := gemmFixtures() // 256×512 float64 activations × 512×256 weights
	out := tensor.New(x.Rows, w.Cols)
	b.Run("float/naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.GEMMInto(nil, x, w, out)
		}
	})
	b.Run("float/blocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.GEMMInto(tensor.KernelBlocked, x, w, out)
		}
	})
}

// BenchmarkKVDtype measures the append+read cost of each KV page dtype:
// f64 pages alias raw storage, f16/int8 pages pay an encode on append and
// a per-page decode (amortized by the one-page decode cache) on read.
// The trade the serving layer makes — 4×/~6.4× more positions per byte for
// a bounded decode tax — is what the sub-benchmark deltas quantify.
func BenchmarkKVDtype(b *testing.B) {
	const cols = 128
	const rows = 256
	src := tensor.RandNormal(tensor.NewRNG(7), rows, cols, 0.5)
	for _, name := range []string{"f64", "f16", "int8"} {
		dtype, err := tensor.ParseKVDtype(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			pool := tensor.NewBlockPoolDtype(cols, tensor.DefaultPageRows, 0, dtype)
			b.Logf("%s: %d bytes/row, %d-byte pages", name, dtype.BytesPerRow(cols), pool.PageBytes())
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				pr := tensor.NewPagedRows(pool, rows)
				for r := 0; r < rows; r++ {
					pr.AppendRow(src.Row(r))
				}
				for r := 0; r < rows; r++ {
					sink += pr.Row(r)[0]
				}
				pr.Release()
			}
			benchSink = sink
		})
	}
}
