package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/serve"
)

// generateRequest is the JSON body of POST /v1/generate, as Handler
// reads it and HTTPBackend writes it.
type generateRequest struct {
	Prompt       []int   `json:"prompt"`
	MaxNewTokens int     `json:"max_new_tokens"`
	Scheme       string  `json:"scheme"`
	Temperature  float64 `json:"temperature"`
	Seed         uint64  `json:"seed"`
	TimeoutMs    int     `json:"timeout_ms,omitempty"`
}

// generateResponse is the JSON body of a 200 from POST /v1/generate.
type generateResponse struct {
	ID            uint64  `json:"id"`
	Scheme        string  `json:"scheme"`
	Tokens        []int   `json:"tokens"`
	TTFTMs        float64 `json:"ttft_ms"`
	LatencyMs     float64 `json:"latency_ms"`
	PrefillTokens int     `json:"prefill_tokens"`
}

// statusTable is the one mapping between the serve error vocabulary and
// HTTP status codes. statusFor answers the first row whose error the
// failure wraps; errorForStatus answers the first row carrying the code,
// so each code's canonical error is listed first.
var statusTable = []struct {
	err  error
	code int
}{
	{serve.ErrInvalidRequest, http.StatusBadRequest},
	{serve.ErrKVBudget, http.StatusBadRequest},
	{serve.ErrQueueFull, http.StatusTooManyRequests},
	{serve.ErrDraining, http.StatusServiceUnavailable},
	{serve.ErrOverloaded, http.StatusServiceUnavailable},
	{serve.ErrStopped, http.StatusServiceUnavailable},
	{ErrNoReplicas, http.StatusServiceUnavailable},
	{serve.ErrDeadlineExceeded, http.StatusGatewayTimeout},
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
	{serve.ErrUnknownScheme, http.StatusNotFound},
	{serve.ErrInternal, http.StatusInternalServerError},
	{context.Canceled, http.StatusBadRequest},
}

// statusFor maps a serving error to its HTTP status. Errors outside the
// table (a replica's unmapped status) are 400.
func statusFor(err error) int {
	for _, row := range statusTable {
		if errors.Is(err, row.err) {
			return row.code
		}
	}
	return http.StatusBadRequest
}

// errorForStatus maps a replica's HTTP status back into the serve error
// vocabulary, so the router's retry policy is identical in-process and
// over the wire.
func errorForStatus(code int) error {
	for _, row := range statusTable {
		if row.code == code {
			return row.err
		}
	}
	return fmt.Errorf("router: replica returned HTTP %d", code)
}

// API is what Handler serves: the submission surface and the hooks its
// read-only endpoints answer from, over one serve.Server or a Router.
type API struct {
	Gen   serve.Generator // POST /v1/generate
	Model model.Config    // edge validation (serve.ValidateRequest)
	// Schemes are the hosted engine specs in canonical form; Default
	// serves requests that name none.
	Schemes         []string
	Default         string
	Snapshot        func() any            // GET /v1/metrics
	WritePrometheus func(io.Writer) error // GET /metrics
	Ready           func() bool           // GET /readyz: false once a drain begins
	// Tracer, when non-nil, is exported at /debug/trace (Chrome
	// trace_event JSON) and /debug/trace.jsonl.
	Tracer *obs.Tracer
	Pprof  bool // mount net/http/pprof under /debug/pprof/
}

// ServerAPI fills API's submission surface and hooks from one replica;
// the caller sets Model, Schemes, Default, Tracer and Pprof.
func ServerAPI(srv *serve.Server) API {
	return API{
		Gen:             srv,
		Snapshot:        func() any { return srv.Metrics().Snapshot() },
		WritePrometheus: srv.WritePrometheus,
		Ready:           func() bool { return !srv.Draining() },
	}
}

// RouterAPI fills API's submission surface and hooks from a router over
// a fleet; the caller sets Model, Schemes, Default, Tracer and Pprof.
func RouterAPI(rt *Router) API {
	return API{
		Gen:             rt,
		Snapshot:        func() any { return rt.Snapshot() },
		WritePrometheus: rt.WritePrometheus,
		Ready:           rt.Ready,
	}
}

// Handler is the tenderserve HTTP JSON API. HTTPBackend speaks the same
// API, so one router can front replicas in other processes. Errors
// writing a response body are dropped: the client has gone, and there
// is no one left to report them to.
func Handler(api API) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", api.generate)
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, api.Snapshot())
	})
	mux.HandleFunc("GET /v1/schemes", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"schemes": api.Schemes, "default": api.Default, "model": api.Model.Name})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !api.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		api.WritePrometheus(w)
	})
	if api.Tracer != nil {
		mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="tenderserve-trace.json"`)
			api.Tracer.WriteChromeTrace(w)
		})
		mux.HandleFunc("GET /debug/trace.jsonl", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/jsonl")
			api.Tracer.WriteJSONL(w)
		})
	}
	if api.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (api API) generate(w http.ResponseWriter, r *http.Request) {
	var in generateRequest
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		writeError(w, fmt.Errorf("%w: %v", serve.ErrInvalidRequest, err))
		return
	}
	// Hosted engines are keyed canonically: case, alias, flag-shorthand
	// and option-order variants ("FP16", "tender-int") resolve to them.
	// Other spellings, such as "tender:bits=8" for a hosted "tender", stay
	// verbatim and fail the hosted-scheme lookup.
	if in.Scheme != "" {
		if c, err := engine.Canonical(in.Scheme); err == nil {
			in.Scheme = c
		}
	}
	req := serve.Request{Prompt: in.Prompt, MaxNewTokens: in.MaxNewTokens,
		Scheme: in.Scheme, Temperature: in.Temperature, Seed: in.Seed}
	// Boundary validation: a malformed request is a 400 here even when the
	// fleet behind a router is unreachable (which would otherwise answer
	// 503 before validation ran on a replica).
	if err := serve.ValidateRequest(api.Model, req); err != nil {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	if in.TimeoutMs > 0 {
		timeout := time.Duration(in.TimeoutMs) * time.Millisecond
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		req.Deadline = time.Now().Add(timeout)
	}
	res, err := api.Gen.Generate(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, generateResponse{
		ID: res.ID, Scheme: res.Scheme, Tokens: res.Tokens,
		TTFTMs:        float64(res.TTFT) / float64(time.Millisecond),
		LatencyMs:     float64(res.Latency) / float64(time.Millisecond),
		PrefillTokens: res.PrefillTokens,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusServiceUnavailable {
		// Draining or browned out: the request was refused, not lost —
		// retry against another replica (or once pressure clears) shortly.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
