// Command tenderserve is the continuous-batching inference server over
// the reproduction's quantized engines.
//
// Engines are named by EngineSpec strings — "fp32", "tender:bits=4,int",
// "uniform:gran=column,dynamic" — resolved against the internal/engine
// registry; -list-schemes prints every scheme and its options.
//
// Serve an HTTP JSON API:
//
//	tenderserve -model opt-6.7b -schemes "tender;fp16" -default-scheme tender -addr :8080
//
//	POST /v1/generate  {"prompt":[1,2,3],"max_new_tokens":16,"scheme":"tender"}
//	GET  /v1/metrics   live counters: tokens/s, queue depth, p50/p95/p99
//	GET  /v1/schemes   hosted engines
//	GET  /healthz      process liveness (always 200 while serving)
//	GET  /readyz       readiness: 200 while accepting work, 503 once a
//	                   drain begins (load balancers stop sending here)
//	GET  /metrics      Prometheus text exposition (counters, gauges,
//	                   per-stage and latency histograms)
//	GET  /debug/trace  Chrome trace_event JSON of recent request
//	                   lifecycles (-trace; open in Perfetto)
//	GET  /debug/pprof  Go profiling endpoints (-pprof)
//
// KV cache memory is paged (fixed-size pages from one shared pool;
// sessions acquire pages lazily). -kv-pages bounds the total pool —
// admission is gated by KV budget and requests are preempted/requeued
// under pressure, without changing their tokens — and -kv-page-rows sets
// the page granularity. -prefix-cache additionally shares the KV pages of
// common prompt prefixes across requests (refcounted, copy-on-write,
// bit-identical; -prefix-cache-rows caps the retained positions).
//
// -router shards serving across N in-process replicas (-replicas, each
// with its own scheduler, KV pool and prefix cache) behind the
// prefix-affinity router (internal/router): prompts are routed by a
// consistent hash of their page-aligned prefix chunks so one tenant's
// cache hits concentrate on the owning replica, with residual load
// spilled by queue depth and KV occupancy. -route-policy selects
// affinity (default), random (scatter) or round-robin.
//
// The router's resilience layer retries failed submissions across
// replicas with bounded attempts and deterministic-jitter backoff
// (-attempt-timeout, -max-attempts, -retry-backoff) and opens a
// per-replica circuit breaker after consecutive failures
// (-breaker-threshold, -breaker-cooldown). The server itself validates
// requests at the boundary (400), sheds load with 503 + Retry-After
// under queue or KV pressure (-brownout-queue-wait, -brownout-kv-frac),
// and isolates scheduler-step panics to the offending request (500).
// -chaos injects seeded deterministic faults (-chaos-*) to exercise all
// of it against a live server.
//
// Shutdown is drain-first: SIGINT/SIGTERM flips /readyz to 503, refuses
// new requests with 503 + Retry-After, lets in-flight requests finish
// (bounded by -drain-timeout), then exits.
//
// Or run a deterministic load test (no client needed), closed-loop or
// open-loop Poisson (-poisson-ms):
//
//	tenderserve -load -model opt-6.7b -schemes tender -requests 64 \
//	    -clients 8 -batch 8 -kv-pages 256 -seed 1 -out report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tender/internal/chaos"
	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/router"
	"tender/internal/serve"
	"tender/internal/tensor"
	"tender/internal/workload"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "HTTP listen address")
		modelName     = flag.String("model", "opt-6.7b", "model (see internal/model Registry)")
		schemesFlag   = flag.String("schemes", "tender", "engine specs to host, separated by ';' or spaces (e.g. \"tender:bits=4,int;fp16\"; see -list-schemes)")
		defaultScheme = flag.String("default-scheme", "", "scheme used when a request names none")
		bits          = flag.Int("bits", 8, "quantization bit width")
		kernelFlag    = flag.String("kernel", "", "default GEMM backend for hosted engines: naive (bit-exact reference) or blocked (register-tiled, cache-blocked; integer paths stay bit-identical, float paths are tolerance-gated); per-spec kernel= options override it")
		qaa           = flag.Bool("qaa", false, "quantize activation-activation matmuls")
		batch         = flag.Int("batch", 8, "max active requests per scheduler iteration")
		queue         = flag.Int("queue", 0, "admission queue depth (0 = 4×batch)")
		prefillChunk  = flag.Int("prefill-chunk", 32, "max prompt tokens per iteration per request (row-coupled engines such as olive prefill whole prompts)")
		kvPages       = flag.Int("kv-pages", 0, "total KV budget in pages across all active sessions (0 = unlimited); admission and preemption keep KV memory under pages×kv-page-rows positions")
		kvPageRows    = flag.Int("kv-page-rows", 0, "rows per KV page (0 = default 16)")
		kvDtype       = flag.String("kv-dtype", "", "KV page storage format: f64 (reference), f16 (4x denser) or int8 (~7.5x); the KV budget is denominated in f64-equivalent rows, so compressed dtypes admit proportionally more concurrent sessions")
		prefixCache   = flag.Bool("prefix-cache", false, "share KV pages of common prompt prefixes across requests: completed prefills are indexed and later prompts mount the matched prefix instead of recomputing it (bit-identical)")
		prefixRows    = flag.Int("prefix-cache-rows", 0, "cap on KV positions retained by cached prefixes (0 = the KV budget when set, else unbounded); rounded up to kv-page-rows")
		traceOn       = flag.Bool("trace", false, "record request-lifecycle events into a bounded ring, exported at GET /debug/trace as Chrome trace_event JSON (open in Perfetto)")
		traceEvents   = flag.Int("trace-events", 0, "trace ring capacity in events (0 = default 65536); the oldest events are overwritten when full")
		pprofOn       = flag.Bool("pprof", false, "expose Go profiling endpoints under /debug/pprof/")
		listSchemes   = flag.Bool("list-schemes", false, "list engine spec schemes and their options, then exit")
		routerOn      = flag.Bool("router", false, "shard serving across in-process replicas behind the prefix-affinity router (see -replicas, -route-policy)")
		replicasFlag  = flag.Int("replicas", 0, "router: in-process replica count, each with its own scheduler, KV pool and prefix cache (0 = 3 when -router is set; >1 implies -router)")
		backendsFlag  = flag.String("backends", "", "router: ';'/space-separated base URLs of remote tenderserve replicas to front over HTTP instead of in-process replicas (implies -router; health-checked via their /readyz)")
		routePolicy   = flag.String("route-policy", "affinity", "router: request placement policy — affinity (consistent-hash prefix chunks), random (scatter) or round-robin")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "bound on finishing in-flight requests when SIGINT/SIGTERM starts a drain")

		attemptTimeout   = flag.Duration("attempt-timeout", 0, "router: per-attempt deadline; a replica that does not answer in time is retried elsewhere (0 = no per-attempt bound). Must exceed worst-case request latency, queue wait included")
		maxAttempts      = flag.Int("max-attempts", 0, "router: total attempts per request across retries and failovers (0 = one try per healthy replica)")
		retryBackoff     = flag.Duration("retry-backoff", 0, "router: base delay before a retry, doubled per attempt with deterministic jitter (0 = retry immediately)")
		retryBackoffMax  = flag.Duration("retry-backoff-max", 0, "router: cap on the exponential retry backoff (0 = 32x retry-backoff)")
		breakerThreshold = flag.Int("breaker-threshold", 0, "router: consecutive retriable failures that open a replica's circuit breaker (0 = breaker off)")
		breakerCooldown  = flag.Duration("breaker-cooldown", 0, "router: how long an open breaker rejects a replica before a half-open probe (0 = 250ms)")

		brownoutQueueWait = flag.Duration("brownout-queue-wait", 0, "shed new requests with 503 while the scheduler's recent queue wait exceeds this (0 = off)")
		brownoutKVFrac    = flag.Float64("brownout-kv-frac", 0, "shed new requests with 503 while live KV occupancy exceeds this fraction of the KV budget (0 = off; needs -kv-pages)")

		chaosOn        = flag.Bool("chaos", false, "inject seeded faults into the serving stack (testing only; see -chaos-* for the fault mix)")
		chaosSeed      = flag.Uint64("chaos-seed", 1, "chaos: decision seed; the same seed faults the same operation sequence")
		chaosTransport = flag.Float64("chaos-transport-rate", 0, "chaos: probability a submission fails as replica-unreachable")
		chaosStallRate = flag.Float64("chaos-stall-rate", 0, "chaos: probability a submission stalls for -chaos-stall-for")
		chaosStallFor  = flag.Duration("chaos-stall-for", 0, "chaos: stall duration (0 = 10ms)")
		chaosMaxStalls = flag.Int("chaos-max-stalls", 0, "chaos: cap on injected stalls (0 = unlimited)")
		chaosCrashRate = flag.Float64("chaos-crash-rate", 0, "chaos: probability a submission kills its replica (needs -chaos-max-crashes)")
		chaosMaxCrash  = flag.Int("chaos-max-crashes", 0, "chaos: cap on replica kills (0 = crashes off)")
		chaosKVRate    = flag.Float64("chaos-kv-rate", 0, "chaos: probability a KV admission check is vetoed as if the pool were dry")
		chaosMaxKV     = flag.Int("chaos-max-kv", 0, "chaos: cap on KV vetoes (0 = unlimited)")
		chaosPanicRate = flag.Float64("chaos-panic-rate", 0, "chaos: probability a scheduler step panics (isolated per request)")
		chaosMaxPanics = flag.Int("chaos-max-panics", 0, "chaos: cap on injected panics (0 = unlimited)")

		load      = flag.Bool("load", false, "run a deterministic load test instead of serving")
		requests  = flag.Int("requests", 64, "load: number of requests")
		clients   = flag.Int("clients", 8, "load: closed-loop client count")
		seed      = flag.Uint64("seed", 1, "load: trace + sampling seed")
		minPrompt = flag.Int("min-prompt", 16, "load: min prompt tokens")
		maxPrompt = flag.Int("max-prompt", 64, "load: max prompt tokens")
		maxNew    = flag.Int("max-new", 16, "load: decode tokens per request")
		temp      = flag.Float64("temperature", 0, "load: sampling temperature (0 = greedy)")
		poissonMs = flag.Float64("poisson-ms", 0, "load: open-loop Poisson arrivals with this mean inter-arrival (ms) instead of the closed loop")
		groups    = flag.Int("prefix-groups", 0, "load: group requests into this many tenants sharing a page-aligned prompt prefix (0 = independent prompts); the multi-tenant trace the router's affinity policy is built for")
		out       = flag.String("out", "", "load: also write the JSON report to this file")
		outDir    = flag.String("out-dir", "", "load: write report.json, metrics.json and (with -trace) trace.json + events.jsonl artifacts to this directory")
	)
	flag.Parse()

	if *listSchemes {
		fmt.Println("spec grammar: scheme[:key=value,flag,...]   (bits=<2..8> works for every scheme)")
		for _, e := range engine.Entries() {
			line := fmt.Sprintf("  %-12s %s", e.Name, e.Summary)
			if e.Options != "" {
				line += " [" + e.Options + "]"
			}
			fmt.Println(line)
		}
		return
	}

	m := model.New(model.Registry(*modelName))
	names, err := engine.SplitSpecList(*schemesFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if len(names) == 0 {
		fatalf("no schemes requested")
	}
	// Engines are keyed (and requested) by the canonical spec form.
	for i, n := range names {
		if names[i], err = engine.Canonical(n); err != nil {
			fatalf("%v", err)
		}
	}
	backendURLs := strings.FieldsFunc(*backendsFlag, func(r rune) bool { return r == ';' || r == ' ' })
	var engines map[string]model.Engine
	if len(backendURLs) == 0 {
		// A pure HTTP front end (-backends) runs no engine of its own; the
		// remote replicas calibrated theirs.
		fmt.Fprintf(os.Stderr, "calibrating %v on %s (bits=%d)...\n", names, *modelName, *bits)
		if engines, err = engine.BuildEngines(m, names, engine.BuildOptions{
			Bits: *bits, QuantActAct: *qaa, Serving: true, Kernel: *kernelFlag,
		}); err != nil {
			fatalf("%v", err)
		}
	}
	def := *defaultScheme
	if def == "" {
		def = names[0]
	} else if def, err = engine.Canonical(def); err != nil {
		fatalf("%v", err)
	}
	pageRows := *kvPageRows
	if pageRows <= 0 {
		pageRows = tensor.DefaultPageRows
	}
	var tracer *obs.Tracer
	if *traceOn {
		tracer = obs.NewTracer(*traceEvents)
	}
	// One injector shared by every hook site (backend submissions, KV
	// admission, scheduler steps); nil keeps the hooks free.
	var inj *chaos.Injector
	if *chaosOn {
		inj = chaos.New(chaos.Config{
			Seed:          *chaosSeed,
			TransportRate: *chaosTransport,
			StallRate:     *chaosStallRate,
			StallFor:      *chaosStallFor,
			MaxStalls:     *chaosMaxStalls,
			CrashRate:     *chaosCrashRate,
			MaxCrashes:    *chaosMaxCrash,
			KVExhaustRate: *chaosKVRate,
			MaxKVExhaust:  *chaosMaxKV,
			PanicRate:     *chaosPanicRate,
			MaxPanics:     *chaosMaxPanics,
		})
		fmt.Fprintf(os.Stderr, "chaos: injecting seeded faults (seed=%d)\n", *chaosSeed)
	}
	// One replica by default; -router (or an explicit -replicas > 1) shards
	// the fleet. Replicas share the model and the calibrated engines — both
	// read-only at inference time — but each owns its scheduler, KV page
	// pool and prefix cache: the state the router's affinity keeps hot.
	if len(backendURLs) > 0 {
		*routerOn = true
	}
	nReplicas := *replicasFlag
	if nReplicas > 1 {
		*routerOn = true
	}
	if *routerOn && nReplicas <= 0 {
		nReplicas = 3
	}
	if !*routerOn {
		nReplicas = 1
	}
	policy, err := router.ParsePolicy(*routePolicy)
	if err != nil {
		fatalf("%v", err)
	}
	mkServer := func() *serve.Server {
		srv, err := serve.New(serve.Config{
			Model: m, Engines: engines, DefaultScheme: def,
			MaxBatch: *batch, QueueDepth: *queue,
			PrefillChunk:      *prefillChunk,
			KVBudgetRows:      *kvPages * pageRows,
			KVPageRows:        pageRows,
			KVDtype:           *kvDtype,
			PrefixCache:       *prefixCache,
			PrefixCacheRows:   *prefixRows,
			Tracer:            tracer,
			BrownoutQueueWait: *brownoutQueueWait,
			BrownoutKVFrac:    *brownoutKVFrac,
			Chaos:             inj,
		})
		if err != nil {
			fatalf("%v", err)
		}
		srv.Start()
		return srv
	}
	var (
		gen   serve.Generator // the submission surface the API serves
		srv   *serve.Server   // single-replica mode only
		rt    *router.Router  // router mode only
		fleet []*serve.Server
	)
	if *routerOn {
		rcfg := router.Config{
			Policy: policy, PageRows: pageRows,
			AttemptTimeout:   *attemptTimeout,
			MaxAttempts:      *maxAttempts,
			RetryBackoff:     *retryBackoff,
			RetryBackoffMax:  *retryBackoffMax,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		}
		if len(backendURLs) > 0 {
			// Multi-process front end: this process runs no scheduler of its
			// own, only the router over the remote tenderserve replicas.
			// Remote processes come and go, so probe: unreachable replicas
			// leave the ring and returning ones rejoin without operator
			// action. (In-process replicas change state only through the
			// router's own drain/failover paths.)
			nReplicas = len(backendURLs)
			rcfg.ProbePeriod = time.Second
			for _, u := range backendURLs {
				rcfg.Replicas = append(rcfg.Replicas, router.Replica{
					ID:      u,
					Backend: &router.HTTPBackend{BaseURL: u, Chaos: inj, ID: u},
				})
			}
		} else {
			if inj != nil {
				// Injected transport faults hard-fail in-process replicas
				// Down; without a prober nothing ever restores them, so
				// chaos mode probes (InProc.Healthy answers instantly).
				rcfg.ProbePeriod = 250 * time.Millisecond
			}
			for i := 0; i < nReplicas; i++ {
				s := mkServer()
				fleet = append(fleet, s)
				id := fmt.Sprintf("r%d", i)
				rcfg.Replicas = append(rcfg.Replicas, router.Replica{
					ID:      id,
					Backend: router.InProc{Srv: s, Chaos: inj, ID: id},
				})
			}
		}
		if rt, err = router.New(rcfg); err != nil {
			fatalf("%v", err)
		}
		rt.Start()
		defer rt.Stop()
		gen = rt
	} else {
		srv = mkServer()
		fleet = []*serve.Server{srv}
		gen = srv
	}
	defer func() {
		for _, s := range fleet {
			s.Stop()
		}
	}()
	metricsSnapshot := func() any {
		if rt != nil {
			return rt.Snapshot()
		}
		return srv.Metrics().Snapshot()
	}
	ready := func() bool {
		if rt != nil {
			return rt.Ready()
		}
		return !srv.Draining()
	}

	if *load {
		var trace []workload.RequestSpec
		if *groups > 0 {
			trace = workload.PrefixGroupedTrace(workload.PrefixGroupConfig{
				Groups:           *groups,
				RequestsPerGroup: (*requests + *groups - 1) / *groups,
				PrefixTokens:     *minPrompt,
				TailTokens:       *maxPrompt - *minPrompt,
				NewTokens:        *maxNew,
				Vocab:            m.Cfg.Vocab,
			}, *seed)
		} else {
			trace = workload.RequestTrace(workload.TraceConfig{
				Requests: *requests, Vocab: m.Cfg.Vocab,
				MinPrompt: *minPrompt, MaxPrompt: *maxPrompt,
				MinNew: *maxNew, MaxNew: *maxNew,
			}, *seed)
		}
		rep := serve.RunLoad(gen, serve.LoadConfig{
			Trace: trace, Clients: *clients,
			Temperature: *temp, SeedBase: *seed,
			PoissonMean: time.Duration(*poissonMs * float64(time.Millisecond)),
			ArrivalSeed: *seed,
		})
		blob, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(blob))
		if *out != "" {
			if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
				fatalf("writing %s: %v", *out, err)
			}
		}
		if *outDir != "" {
			if err := writeLoadArtifacts(*outDir, blob, metricsSnapshot(), tracer); err != nil {
				fatalf("%v", err)
			}
		}
		if rep.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", func(w http.ResponseWriter, r *http.Request) {
		var in generateRequest
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// Hosted engines are keyed canonically; accept case, alias,
		// flag-shorthand and option-order variants of a hosted spec
		// ("FP16", "tender-int") per request. Other spellings — including
		// ones that elaborate defaulted options, like "tender:bits=8" for
		// a hosted "tender" — and unparseable names stay verbatim and fail
		// the hosted-scheme lookup below.
		if in.Scheme != "" {
			if c, err := engine.Canonical(in.Scheme); err == nil {
				in.Scheme = c
			}
		}
		req := serve.Request{
			Prompt:       in.Prompt,
			MaxNewTokens: in.MaxNewTokens,
			Scheme:       in.Scheme,
			Temperature:  in.Temperature,
			Seed:         in.Seed,
		}
		// Boundary validation: a malformed request is a 400 here even when
		// the fleet behind the router is unreachable (which would otherwise
		// answer 503 before validation ran on a replica).
		if err := serve.ValidateRequest(m.Cfg, req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		ctx := r.Context()
		if in.TimeoutMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(in.TimeoutMs)*time.Millisecond)
			defer cancel()
			req.Deadline = time.Now().Add(time.Duration(in.TimeoutMs) * time.Millisecond)
		}
		res, err := gen.Generate(ctx, req)
		if err != nil {
			code := statusFor(err)
			if code == http.StatusServiceUnavailable {
				// Draining or browned out: the request was refused, not lost
				// — retry against another replica (or once pressure clears)
				// shortly.
				w.Header().Set("Retry-After", "1")
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, generateResponse{
			ID: res.ID, Scheme: res.Scheme, Tokens: res.Tokens,
			TTFTMs:        float64(res.TTFT) / float64(time.Millisecond),
			LatencyMs:     float64(res.Latency) / float64(time.Millisecond),
			PrefillTokens: res.PrefillTokens,
		})
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, metricsSnapshot())
	})
	mux.HandleFunc("GET /v1/schemes", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"schemes": names, "default": def, "model": m.Cfg.Name})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !ready() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]bool{"ready": false})
			return
		}
		writeJSON(w, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if rt != nil {
			rt.WritePrometheus(w)
			return
		}
		srv.WritePrometheus(w)
	})
	if tracer != nil {
		mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="tenderserve-trace.json"`)
			tracer.WriteChromeTrace(w)
		})
		mux.HandleFunc("GET /debug/trace.jsonl", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/jsonl")
			tracer.WriteJSONL(w)
		})
	}
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	if rt != nil {
		fmt.Fprintf(os.Stderr, "tenderserve: %s hosting %v on %s, %s-routing %d replicas\n",
			*modelName, names, *addr, policy, nReplicas)
	} else {
		fmt.Fprintf(os.Stderr, "tenderserve: %s hosting %v on %s\n", *modelName, names, *addr)
	}
	// Drain-first shutdown: SIGINT/SIGTERM flips /readyz, lets in-flight
	// requests finish within -drain-timeout, then closes the listener.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		fatalf("%v", err)
	case <-sigCtx.Done():
	}
	stopSignals() // a second signal kills immediately, default disposition
	fmt.Fprintf(os.Stderr, "tenderserve: draining (bound %s)...\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if rt != nil {
		err = rt.DrainAll(dctx)
	} else {
		err = srv.Drain(dctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tenderserve: drain incomplete: %v\n", err)
	}
	httpSrv.Shutdown(dctx)
	fmt.Fprintln(os.Stderr, "tenderserve: drained, exiting")
}

type generateRequest struct {
	Prompt       []int   `json:"prompt"`
	MaxNewTokens int     `json:"max_new_tokens"`
	Scheme       string  `json:"scheme"`
	Temperature  float64 `json:"temperature"`
	Seed         uint64  `json:"seed"`
	TimeoutMs    int     `json:"timeout_ms"`
}

type generateResponse struct {
	ID            uint64  `json:"id"`
	Scheme        string  `json:"scheme"`
	Tokens        []int   `json:"tokens"`
	TTFTMs        float64 `json:"ttft_ms"`
	LatencyMs     float64 `json:"latency_ms"`
	PrefillTokens int     `json:"prefill_tokens"`
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, serve.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrDraining),
		errors.Is(err, serve.ErrStopped), errors.Is(err, router.ErrNoReplicas):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, serve.ErrUnknownScheme):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrInternal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeLoadArtifacts persists a load run's observability artifacts:
// report.json (the LoadReport), metrics.json (the final snapshot — the
// server's, or the router's with per-replica breakdowns), and — when
// tracing is on — trace.json (Chrome trace_event, loadable in Perfetto)
// plus events.jsonl (the raw event log).
func writeLoadArtifacts(dir string, report []byte, metrics any, tracer *obs.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), append(report, '\n'), 0o644); err != nil {
		return err
	}
	snap, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.json"), append(snap, '\n'), 0o644); err != nil {
		return err
	}
	if tracer == nil {
		return nil
	}
	tf, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	ef, err := os.Create(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(ef); err != nil {
		ef.Close()
		return err
	}
	return ef.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tenderserve: "+format+"\n", args...)
	os.Exit(1)
}
