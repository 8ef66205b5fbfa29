// Command tenderserve is the continuous-batching inference server over
// the reproduction's quantized engines.
//
// Engines are named by EngineSpec strings — "fp32", "tender:bits=4,int",
// "uniform:gran=column,dynamic" — resolved against the internal/engine
// registry; -list-schemes prints every scheme and its options. Only
// engines that pass the row-independence audit serve: a spec marked
// offline only there (olive, msfp:ol, uniform:dynamic, tender:rowchunk=)
// stops startup with model.ErrRowCoupled.
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
// spilled by queue depth and KV occupancy. -backends fronts remote
// tenderserve processes instead, over the same HTTP API.
//
// The router's resilience layer retries failed submissions across
// replicas with bounded attempts and deterministic-jitter backoff
// (-attempt-timeout, -max-attempts, -retry-backoff) and opens a
// per-replica circuit breaker after consecutive failures
// (-breaker-threshold, -breaker-cooldown). The server itself validates
// requests at the boundary (400), sheds load with 503 + Retry-After
// under queue or KV pressure (-brownout-queue-wait, -brownout-kv-frac),
// and isolates scheduler-step panics to the offending request (500).
// The API and its status codes live in internal/router (router.Handler).
//
// Shutdown is drain-first: SIGINT/SIGTERM flips /readyz to 503, refuses
// new requests with 503 + Retry-After, lets in-flight requests finish
// (bounded by -drain-timeout), then exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/router"
	"tender/internal/serve"
	"tender/internal/tensor"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "HTTP listen address")
		modelName     = flag.String("model", "opt-6.7b", "model (see internal/model Registry)")
		schemesFlag   = flag.String("schemes", "tender", "engine specs to host, separated by ';' or spaces (e.g. \"tender:bits=4,int;fp16\"; see -list-schemes)")
		defaultScheme = flag.String("default-scheme", "", "scheme used when a request names none")
		bits          = flag.Int("bits", 8, "quantization bit width")
		kernelFlag    = flag.String("kernel", "", "default float GEMM backend for hosted engines: naive (bit-exact reference) or blocked (register-tiled, cache-blocked, tolerance-gated); per-spec kernel= options override it. tender:int has one integer GEMM and rejects blocked")
		batch         = flag.Int("batch", 8, "max active requests per scheduler iteration")
		queue         = flag.Int("queue", 0, "admission queue depth (0 = 4×batch)")
		prefillChunk  = flag.Int("prefill-chunk", 32, "max prompt tokens per iteration per request")
		kvPages       = flag.Int("kv-pages", 0, "total KV budget in pages across all active sessions (0 = unlimited); admission and preemption keep KV memory under pages×kv-page-rows positions")
		kvPageRows    = flag.Int("kv-page-rows", 0, "rows per KV page (0 = default 16)")
		prefixCache   = flag.Bool("prefix-cache", false, "share KV pages of common prompt prefixes across requests: completed prefills are indexed and later prompts mount the matched prefix instead of recomputing it (bit-identical)")
		prefixRows    = flag.Int("prefix-cache-rows", 0, "cap on KV positions retained by cached prefixes (0 = the KV budget when set, else unbounded); rounded up to kv-page-rows")
		traceOn       = flag.Bool("trace", false, "record request-lifecycle events into a bounded ring, exported at GET /debug/trace as Chrome trace_event JSON (open in Perfetto)")
		traceEvents   = flag.Int("trace-events", 0, "trace ring capacity in events (0 = default 65536); the oldest events are overwritten when full")
		pprofOn       = flag.Bool("pprof", false, "expose Go profiling endpoints under /debug/pprof/")
		listSchemes   = flag.Bool("list-schemes", false, "list engine spec schemes and their options, then exit")
		routerOn      = flag.Bool("router", false, "shard serving across in-process replicas behind the prefix-affinity router (see -replicas)")
		replicasFlag  = flag.Int("replicas", 0, "router: in-process replica count, each with its own scheduler, KV pool and prefix cache (0 = 3 when -router is set; >1 implies -router)")
		backendsFlag  = flag.String("backends", "", "router: ';'/space-separated base URLs of remote tenderserve replicas to front over HTTP instead of in-process replicas (implies -router; health-checked via their /readyz)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "bound on finishing in-flight requests when SIGINT/SIGTERM starts a drain")

		attemptTimeout   = flag.Duration("attempt-timeout", 0, "router: per-attempt deadline; a replica that does not answer in time is retried elsewhere (0 = no per-attempt bound). Must exceed worst-case request latency, queue wait included")
		maxAttempts      = flag.Int("max-attempts", 0, "router: total attempts per request across retries and failovers (0 = one try per healthy replica)")
		retryBackoff     = flag.Duration("retry-backoff", 0, "router: base delay before a retry, doubled per attempt with deterministic jitter (0 = retry immediately)")
		retryBackoffMax  = flag.Duration("retry-backoff-max", 0, "router: cap on the exponential retry backoff (0 = 32x retry-backoff)")
		breakerThreshold = flag.Int("breaker-threshold", 0, "router: consecutive retriable failures that open a replica's circuit breaker (0 = breaker off)")
		breakerCooldown  = flag.Duration("breaker-cooldown", 0, "router: how long an open breaker rejects a replica before a half-open probe (0 = 250ms)")

		brownoutQueueWait = flag.Duration("brownout-queue-wait", 0, "shed new requests with 503 while the scheduler's recent queue wait exceeds this (0 = off)")
		brownoutKVFrac    = flag.Float64("brownout-kv-frac", 0, "shed new requests with 503 while live KV occupancy exceeds this fraction of the KV budget (0 = off; needs -kv-pages)")
	)
	flag.Parse()

	if *listSchemes {
		fmt.Println("spec grammar: scheme[:key=value,flag,...]   (bits=<2..8> works for every scheme; kernel=naive|blocked picks the float GEMM backend, naive only for tender:int)")
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
			Bits: *bits, Serving: true, Kernel: *kernelFlag,
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
	// One replica by default; -router (or an explicit -replicas > 1) shards
	// the fleet. Replicas share the model and the calibrated engines — both
	// read-only at inference time — but each owns its scheduler, KV page
	// pool and prefix cache: the state the router's affinity keeps hot.
	nReplicas := *replicasFlag
	routed := *routerOn || nReplicas > 1 || len(backendURLs) > 0
	if !routed {
		nReplicas = 1
	} else if nReplicas <= 0 {
		nReplicas = 3
	}
	mkServer := func() *serve.Server {
		srv, err := serve.New(serve.Config{
			Model: m, Engines: engines, DefaultScheme: def,
			MaxBatch: *batch, QueueDepth: *queue,
			PrefillChunk:      *prefillChunk,
			KVBudgetRows:      *kvPages * pageRows,
			KVPageRows:        pageRows,
			PrefixCache:       *prefixCache,
			PrefixCacheRows:   *prefixRows,
			Tracer:            tracer,
			BrownoutQueueWait: *brownoutQueueWait,
			BrownoutKVFrac:    *brownoutKVFrac,
		})
		if err != nil {
			fatalf("%v", err)
		}
		srv.Start()
		return srv
	}
	var (
		api   router.API
		fleet []*serve.Server
		drain func(context.Context) error
	)
	if routed {
		rcfg := router.Config{
			PageRows:         pageRows,
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
				rcfg.Replicas = append(rcfg.Replicas, router.Replica{ID: u, Backend: &router.HTTPBackend{BaseURL: u}})
			}
		} else {
			for i := 0; i < nReplicas; i++ {
				s := mkServer()
				fleet = append(fleet, s)
				rcfg.Replicas = append(rcfg.Replicas, router.Replica{ID: fmt.Sprintf("r%d", i), Backend: router.InProc{Srv: s}})
			}
		}
		rt, err := router.New(rcfg)
		if err != nil {
			fatalf("%v", err)
		}
		rt.Start()
		defer rt.Stop()
		api = router.RouterAPI(rt)
		drain = rt.DrainAll
		fmt.Fprintf(os.Stderr, "tenderserve: %s hosting %v on %s, routing %d replicas by prefix affinity\n",
			*modelName, names, *addr, nReplicas)
	} else {
		srv := mkServer()
		fleet = []*serve.Server{srv}
		api = router.ServerAPI(srv)
		drain = srv.Drain
		fmt.Fprintf(os.Stderr, "tenderserve: %s hosting %v on %s\n", *modelName, names, *addr)
	}
	api.Model, api.Schemes, api.Default, api.Tracer, api.Pprof = m.Cfg, names, def, tracer, *pprofOn
	defer func() {
		for _, s := range fleet {
			s.Stop()
		}
	}()

	// Drain-first shutdown: SIGINT/SIGTERM flips /readyz, lets in-flight
	// requests finish within -drain-timeout, then closes the listener.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	httpSrv := &http.Server{Addr: *addr, Handler: router.Handler(api)}
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
	if err := drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "tenderserve: drain incomplete: %v\n", err)
	}
	httpSrv.Shutdown(dctx)
	fmt.Fprintln(os.Stderr, "tenderserve: drained, exiting")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tenderserve: "+format+"\n", args...)
	os.Exit(1)
}
