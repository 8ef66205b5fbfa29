package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/serve"
	"tender/internal/workload"
)

// ServeBenchFile is where ServeBench drops its JSON summary (the serving
// perf trajectory seed: decode tokens/s and tail latency).
const ServeBenchFile = "BENCH_serve.json"

// serveBenchResult is the JSON summary of one serving configuration.
type serveBenchResult struct {
	Scheme        string  `json:"scheme"`
	Batch         int     `json:"batch"`
	TokensPerSec  float64 `json:"decode_tokens_per_sec"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	TTFTP50Ms     float64 `json:"ttft_p50_ms"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	SpeedupVsB1   float64 `json:"speedup_vs_batch1"`
}

// prefixBenchResult is the JSON summary of one shared-system-prompt
// configuration: the prefix-cached scheduler against the cold-prefill
// baseline on the same trace.
type prefixBenchResult struct {
	Scheme       string  `json:"scheme"`
	Batch        int     `json:"batch"`
	TokensPerSec float64 `json:"decode_tokens_per_sec"`
	// PrefillTokPerSec is submitted prompt tokens per wall second — served
	// prefill throughput, counting cache-skipped tokens as served (that is
	// the point of the cache).
	PrefillTokPerSec float64 `json:"prefill_tok_per_sec"`
	TTFTP50Ms        float64 `json:"ttft_p50_ms"`
	LatencyP50Ms     float64 `json:"latency_p50_ms"`
	PrefixHits       int64   `json:"prefix_hits"`
	PrefillSkipped   int64   `json:"prefill_tokens_skipped"`
	// Speedups vs the prefix-cold row (1.0 on the cold row itself).
	TTFTSpeedupVsCold    float64 `json:"ttft_speedup_vs_cold"`
	PrefillSpeedupVsCold float64 `json:"prefill_speedup_vs_cold"`
}

// kvBenchResult is the JSON summary of the memory-pressure configuration:
// the paged scheduler under a KV row budget of a few worst-case sessions.
type kvBenchResult struct {
	Scheme              string  `json:"scheme"`
	Batch               int     `json:"batch"`
	KVBudgetRows        int     `json:"kv_budget_rows"`
	KVPageRows          int     `json:"kv_page_rows"`
	TokensPerSec        float64 `json:"decode_tokens_per_sec"`
	LatencyP50Ms        float64 `json:"latency_p50_ms"`
	TTFTP50Ms           float64 `json:"ttft_p50_ms"`
	PeakActiveSessions  int64   `json:"peak_active_sessions"`
	Preemptions         int64   `json:"preemptions"`
	KVPeakOccupancyRows int64   `json:"kv_peak_occupancy_rows"`
}

// scenarioTracer returns a fresh lifecycle tracer when artifacts were
// requested, else nil (a nil tracer keeps the scheduler's record calls a
// single nil check each).
func (o Options) scenarioTracer() *obs.Tracer {
	if o.ArtifactDir == "" {
		return nil
	}
	return obs.NewTracer(1 << 16)
}

// writeServeArtifacts drops one scenario row's Chrome trace and metrics
// snapshot under dir as <row>.trace.json / <row>.metrics.json.
// Best-effort: the rendered table stays the primary artifact.
func writeServeArtifacts(dir, rowName string, tracer *obs.Tracer, srv *serve.Server) {
	if dir == "" || tracer == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "serve bench artifacts: %v\n", err)
		return
	}
	base := strings.NewReplacer("/", "-", ":", "-").Replace(rowName)
	f, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err == nil {
		err = tracer.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve bench artifacts: %v\n", err)
	}
	if blob, merr := json.MarshalIndent(srv.Metrics().Snapshot(), "", "  "); merr == nil {
		if werr := os.WriteFile(filepath.Join(dir, base+".metrics.json"), append(blob, '\n'), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "serve bench artifacts: %v\n", werr)
		}
	}
}

// ServeBench benchmarks the continuous-batching server: a deterministic
// closed-loop load test over calibrated engines at batch 1, 8 and 32,
// recorded as "fused-decode/<spec>" rows with speedups against the
// scheme's batch-1 row. Every row is also written to BENCH_serve.json to
// seed the serving perf trajectory.
func ServeBench(o Options) Table {
	modelName := "opt-6.7b"
	schemeNames := []string{"fp32", "tender", "tender:int"}
	// Decode-heavy trace: generation dominates the wall clock, the regime
	// continuous batching (and the fused decode pass) is built for.
	requests, minP, maxP, newTok := 32, 16, 32, 48
	if o.Quick {
		requests, minP, maxP, newTok = 12, 8, 16, 12
	}
	m := model.New(model.Registry(modelName))
	engines, err := engine.BuildEngines(m, schemeNames, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 64, Serving: true,
	})
	if err != nil {
		panic(err)
	}
	trace := workload.RequestTrace(workload.TraceConfig{
		Requests: requests, Vocab: m.Cfg.Vocab,
		MinPrompt: minP, MaxPrompt: maxP, MinNew: newTok, MaxNew: newTok,
	}, 1+o.Seed)

	t := Table{
		ID:    "serve",
		Title: "Continuous-batching serving throughput (closed-loop load)",
		Note: fmt.Sprintf("%s, %d requests, prompts %d-%d, %d decode tokens, GOMAXPROCS=%d; speedups against the scheme's batch-1 row",
			modelName, requests, minP, maxP, newTok, runtime.GOMAXPROCS(0)),
		Columns: []string{"Scheme", "Batch", "tok/s", "p50 ms", "p99 ms", "TTFT p50", "Mean batch", "Speedup"},
	}
	var emit []serveBenchResult
	for _, name := range schemeNames {
		var base float64
		rowName := "fused-decode/" + name
		for _, batch := range []int{1, 8, 32} {
			tracer := o.scenarioTracer()
			srv, err := serve.New(serve.Config{
				Model: m, Engines: engines, DefaultScheme: name,
				MaxBatch: batch, PrefillChunk: 16,
				Tracer: tracer,
			})
			if err != nil {
				panic(err)
			}
			srv.Start()
			rep := serve.RunLoad(srv, serve.LoadConfig{Trace: trace, Clients: batch, Scheme: name})
			srv.Stop()
			if rep.Failed > 0 {
				panic(fmt.Sprintf("serve bench: %d requests failed", rep.Failed))
			}
			if batch == 1 {
				base = rep.TokensPerSec
			}
			speedup := 1.0
			if base > 0 {
				speedup = rep.TokensPerSec / base
			}
			writeServeArtifacts(o.ArtifactDir, fmt.Sprintf("%s-b%d", rowName, batch), tracer, srv)
			t.Rows = append(t.Rows, []string{
				rowName, fmt.Sprintf("%d", batch),
				fmt.Sprintf("%.1f", rep.TokensPerSec),
				fmt.Sprintf("%.1f", rep.LatencyP50Ms),
				fmt.Sprintf("%.1f", rep.LatencyP99Ms),
				fmt.Sprintf("%.1f", rep.TTFTP50Ms),
				fmt.Sprintf("%.2f", rep.MeanBatchSize),
				FormatX(speedup),
			})
			emit = append(emit, serveBenchResult{
				Scheme: rowName, Batch: batch,
				TokensPerSec: rep.TokensPerSec,
				LatencyP50Ms: rep.LatencyP50Ms, LatencyP99Ms: rep.LatencyP99Ms,
				TTFTP50Ms: rep.TTFTP50Ms, MeanBatchSize: rep.MeanBatchSize,
				SpeedupVsB1: speedup,
			})
		}
	}
	// Memory-pressure scenario: many long-prompt Poisson arrivals against
	// a small shared KV budget. The scheduler admits by pages and preempts
	// under pressure, so the budget holds several times the
	// budget/MaxSeq sessions a worst-case preallocating layout could;
	// outputs are bit-identical to an unpressured run either way.
	kvScheme := "fp32"
	// Prompts land mid-page and decodes run long enough to cross page
	// boundaries past the admission reservation, so the scheduler has to
	// preempt once the pool saturates.
	kvBudget := 2 * m.Cfg.MaxSeq
	mpRequests, mpBatch := 24, 24
	poissonMean := 2 * time.Millisecond
	if o.Quick {
		mpRequests = 12
		kvBudget = m.Cfg.MaxSeq + m.Cfg.MaxSeq/4
	}
	mpTrace := workload.RequestTrace(workload.TraceConfig{
		Requests: mpRequests, Vocab: m.Cfg.Vocab,
		MinPrompt: 24, MaxPrompt: 40, MinNew: 24, MaxNew: 24,
	}, 2+o.Seed)
	tracer := o.scenarioTracer()
	srv, err := serve.New(serve.Config{
		Model: m, Engines: engines, DefaultScheme: kvScheme,
		MaxBatch: mpBatch, QueueDepth: mpRequests, PrefillChunk: 16,
		KVBudgetRows: kvBudget,
		Tracer:       tracer,
	})
	if err != nil {
		panic(err)
	}
	srv.Start()
	rep := serve.RunLoad(srv, serve.LoadConfig{
		Trace: mpTrace, Scheme: kvScheme,
		PoissonMean: poissonMean, ArrivalSeed: 3 + o.Seed,
	})
	snap := srv.Metrics().Snapshot()
	srv.Stop()
	if rep.Failed > 0 {
		panic(fmt.Sprintf("serve bench: %d memory-pressure requests failed", rep.Failed))
	}
	kvRow := "kv-paged/" + kvScheme
	writeServeArtifacts(o.ArtifactDir, kvRow, tracer, srv)
	kv := kvBenchResult{
		Scheme: kvRow, Batch: mpBatch,
		KVBudgetRows: snap.KVBudgetRows, KVPageRows: snap.KVPageRows,
		TokensPerSec: rep.TokensPerSec,
		LatencyP50Ms: rep.LatencyP50Ms, TTFTP50Ms: rep.TTFTP50Ms,
		PeakActiveSessions:  snap.PeakActiveSessions,
		Preemptions:         snap.Preemptions,
		KVPeakOccupancyRows: snap.KVPeakOccupancyRows,
	}
	t.Rows = append(t.Rows, []string{
		kv.Scheme, fmt.Sprintf("%d", kv.Batch),
		fmt.Sprintf("%.1f", kv.TokensPerSec),
		fmt.Sprintf("%.1f", kv.LatencyP50Ms),
		fmt.Sprintf("peak %d sess", kv.PeakActiveSessions),
		fmt.Sprintf("%.1f", kv.TTFTP50Ms),
		fmt.Sprintf("%d preempt", kv.Preemptions),
		"-",
	})
	t.Note += fmt.Sprintf("; kv-paged row: memory pressure under a %d-row KV budget (Poisson arrivals, mean %v) — p99 column = peak concurrent sessions, mean-batch column = preemptions", kvBudget, poissonMean)

	// Shared-system-prompt scenario: every request carries the same long
	// page-aligned system prefix plus a short unique user tail — the
	// dominant real serving pattern. One warm request seeds the prefix
	// index, then a closed-loop batch measures prefill throughput and TTFT
	// with the cache on (tails prefill, prefixes mount) against the cold
	// baseline recomputing the prefix every time.
	pcScheme := "fp32"
	sysLen, tailLen, pcNew := 96, 8, 4
	pcRequests, pcBatch := 24, 8
	if o.Quick {
		sysLen, pcRequests = 48, 12
	}
	sys := workload.TokenStream(workload.Wiki, 11+o.Seed, sysLen, m.Cfg.Vocab)
	pcTrace := make([]workload.RequestSpec, pcRequests)
	for i := range pcTrace {
		tail := workload.TokenStream(workload.PTB, 300+uint64(i)+o.Seed, tailLen, m.Cfg.Vocab)
		pcTrace[i] = workload.RequestSpec{
			Prompt:    append(append([]int(nil), sys...), tail...),
			NewTokens: pcNew,
		}
	}
	warm := []workload.RequestSpec{{
		Prompt:    append(append([]int(nil), sys...), sys[0]),
		NewTokens: 1,
	}}
	promptTokens := 0
	for _, r := range pcTrace {
		promptTokens += len(r.Prompt)
	}
	var pcEmit []prefixBenchResult
	for _, cached := range []bool{false, true} {
		tracer := o.scenarioTracer()
		srv, err := serve.New(serve.Config{
			Model: m, Engines: engines, DefaultScheme: pcScheme,
			MaxBatch: pcBatch, QueueDepth: pcRequests, PrefillChunk: 16,
			PrefixCache: cached,
			Tracer:      tracer,
		})
		if err != nil {
			panic(err)
		}
		srv.Start()
		serve.RunLoad(srv, serve.LoadConfig{Trace: warm, Clients: 1, Scheme: pcScheme})
		rep := serve.RunLoad(srv, serve.LoadConfig{Trace: pcTrace, Clients: pcBatch, Scheme: pcScheme})
		snap := srv.Metrics().Snapshot()
		srv.Stop()
		if rep.Failed > 0 {
			panic(fmt.Sprintf("serve bench: %d shared-prefix requests failed", rep.Failed))
		}
		rowName := "prefix-cold/" + pcScheme
		if cached {
			rowName = "prefix-cache/" + pcScheme
		}
		writeServeArtifacts(o.ArtifactDir, rowName, tracer, srv)
		pcEmit = append(pcEmit, prefixBenchResult{
			Scheme: rowName, Batch: pcBatch,
			TokensPerSec:     rep.TokensPerSec,
			PrefillTokPerSec: float64(promptTokens) / rep.WallSeconds,
			TTFTP50Ms:        rep.TTFTP50Ms,
			LatencyP50Ms:     rep.LatencyP50Ms,
			PrefixHits:       snap.PrefixHits,
			PrefillSkipped:   snap.PrefillTokensSkipped,
		})
	}
	pcEmit[0].TTFTSpeedupVsCold = 1
	pcEmit[0].PrefillSpeedupVsCold = 1
	if pcEmit[1].TTFTP50Ms > 0 {
		pcEmit[1].TTFTSpeedupVsCold = pcEmit[0].TTFTP50Ms / pcEmit[1].TTFTP50Ms
	}
	if pcEmit[0].PrefillTokPerSec > 0 {
		pcEmit[1].PrefillSpeedupVsCold = pcEmit[1].PrefillTokPerSec / pcEmit[0].PrefillTokPerSec
	}
	if pcEmit[1].TTFTSpeedupVsCold < 2 || pcEmit[1].PrefillSpeedupVsCold < 2 {
		fmt.Fprintf(os.Stderr, "serve bench: shared-prefix speedup below 2x (ttft %.2fx, prefill %.2fx)\n",
			pcEmit[1].TTFTSpeedupVsCold, pcEmit[1].PrefillSpeedupVsCold)
	}
	for _, e := range pcEmit {
		t.Rows = append(t.Rows, []string{
			e.Scheme, fmt.Sprintf("%d", e.Batch),
			fmt.Sprintf("%.1f", e.PrefillTokPerSec),
			fmt.Sprintf("%.1f", e.LatencyP50Ms),
			fmt.Sprintf("%d hits", e.PrefixHits),
			fmt.Sprintf("%.1f", e.TTFTP50Ms),
			fmt.Sprintf("%d skipped", e.PrefillSkipped),
			FormatX(e.TTFTSpeedupVsCold),
		})
	}
	t.Note += fmt.Sprintf("; prefix-* rows: %d requests sharing a %d-token system prompt (+%d-token unique tails) — tok/s column = served prefill tokens/s, p99 column = prefix hits, mean-batch column = prefill tokens skipped, speedup = TTFT p50 vs the cold-prefill baseline", pcRequests, sysLen, tailLen)

	// Best-effort: the table is the primary artifact, the JSON file seeds
	// perf tracking across PRs.
	results := make([]any, 0, len(emit)+1+len(pcEmit))
	for _, e := range emit {
		results = append(results, e)
	}
	results = append(results, kv)
	for _, e := range pcEmit {
		results = append(results, e)
	}
	rows := make([]map[string]any, 0, len(results))
	for _, e := range results {
		if blob, err := json.Marshal(e); err == nil {
			var row map[string]any
			if json.Unmarshal(blob, &row) == nil {
				rows = append(rows, row)
			}
		}
	}
	// Own only the rows this run measured, so rows any other writer records
	// survive the rewrite.
	owned := make(map[string]bool, len(rows))
	for _, row := range rows {
		owned[row["scheme"].(string)] = true
	}
	if err := RewriteServeBench(ServeBenchFile, func(scheme string) bool {
		return owned[scheme]
	}, rows); err != nil {
		fmt.Fprintf(os.Stderr, "serve bench: %v\n", err)
	}
	return t
}

// RewriteServeBench rewrites the BENCH_serve.json at path, replacing the
// rows the caller owns — those whose "scheme" field satisfies owned —
// with rows and keeping every other writer's rows (ServeBench owns the
// serving-throughput rows; BenchmarkPreparedDecode the "prepared-decode/"
// rows). An existing file that fails to parse aborts the rewrite instead
// of clobbering the other writers' data.
func RewriteServeBench(path string, owned func(scheme string) bool, rows []map[string]any) error {
	var kept []map[string]any
	if blob, err := os.ReadFile(path); err == nil {
		var prev []map[string]any
		if err := json.Unmarshal(blob, &prev); err != nil {
			return fmt.Errorf("%s exists but does not parse, not rewriting: %w", path, err)
		}
		for _, row := range prev {
			if scheme, _ := row["scheme"].(string); !owned(scheme) {
				kept = append(kept, row)
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("%s exists but is unreadable, not rewriting: %w", path, err)
	}
	kept = append(kept, rows...)
	// Stable row order keeps regeneration diffs minimal regardless of
	// which writer ran last.
	sort.SliceStable(kept, func(i, j int) bool {
		si, _ := kept[i]["scheme"].(string)
		sj, _ := kept[j]["scheme"].(string)
		if si != sj {
			return si < sj
		}
		bi, _ := kept[i]["batch"].(float64)
		bj, _ := kept[j]["batch"].(float64)
		return bi < bj
	})
	blob, err := json.MarshalIndent(kept, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
