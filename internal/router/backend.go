package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"tender/internal/chaos"
	"tender/internal/serve"
)

// Backend is one serving replica behind the router: a *serve.Server in
// this process (InProc) or a remote tenderserve over HTTP (HTTPBackend).
// The router only needs to submit requests, read a metrics snapshot for
// load scoring, probe liveness, and drain.
type Backend interface {
	Generate(ctx context.Context, req serve.Request) (serve.Result, error)
	// Snapshot returns the replica's live metrics; ok=false when the
	// replica is unreachable (the router then scores it by its own
	// in-flight accounting alone).
	Snapshot() (serve.Snapshot, bool)
	// Healthy is the liveness/readiness probe.
	Healthy() bool
	// Drain flips the replica into draining mode (new submissions refused
	// with ErrDraining) and blocks until in-flight work completes or ctx
	// expires.
	Drain(ctx context.Context) error
}

// InProc adapts a *serve.Server into a Backend. Replicas share the model
// and the read-only engines (calibrate once, host N times) but each owns
// its scheduler, KV page pool and prefix cache — the state the router
// shards.
type InProc struct {
	Srv *serve.Server
	// Chaos, when non-nil, injects seeded faults into every submission:
	// a transport error before the server sees the request, a stall, or
	// a crash (the server is stopped, so this and subsequent submissions
	// fail with ErrStopped and the router marks the replica Down). Nil
	// costs one pointer test.
	Chaos *chaos.Injector
	// ID names this backend in chaos decisions (informational).
	ID string
}

// Generate submits to the wrapped server, applying any injected fault
// first.
func (b InProc) Generate(ctx context.Context, req serve.Request) (serve.Result, error) {
	if err := chaosSubmit(ctx, b.Chaos, b.ID, b.Srv.Stop); err != nil {
		return serve.Result{}, err
	}
	return b.Srv.Generate(ctx, req)
}

// chaosSubmit applies one injector decision to a submission: a transport
// fault fails it as unreachable (the stack's own vocabulary, so the
// resilience code cannot tell injected faults from real ones), a stall
// delays it — past the caller's deadline it fails with the context error,
// exactly like a genuine hang — and a crash invokes kill (nil when the
// target cannot be killed from here; the fault then degrades to a
// transport error).
func chaosSubmit(ctx context.Context, inj *chaos.Injector, id string, kill func()) error {
	d := inj.Submit(id)
	switch d.Fault {
	case chaos.FaultTransport:
		return fmt.Errorf("%w: %v", ErrReplicaUnreachable, chaos.ErrInjected)
	case chaos.FaultStall:
		t := time.NewTimer(d.Delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	case chaos.FaultCrash:
		if kill == nil {
			return fmt.Errorf("%w: %v", ErrReplicaUnreachable, chaos.ErrInjected)
		}
		kill()
		return nil // the killed server answers ErrStopped below
	}
	return nil
}

// Snapshot reads the server's live metrics.
func (b InProc) Snapshot() (serve.Snapshot, bool) {
	return b.Srv.Metrics().Snapshot(), true
}

// Healthy reports readiness: an in-process replica is ready unless it
// is draining or stopped. Neither state is recoverable for a
// serve.Server, so the prober keeps the replica Down until an operator
// Restores it with a fresh backend.
func (b InProc) Healthy() bool { return !b.Srv.Draining() && !b.Srv.Stopped() }

// Drain delegates to the server's bounded drain.
func (b InProc) Drain(ctx context.Context) error { return b.Srv.Drain(ctx) }

// Default HTTP clients, shared by every HTTPBackend that does not bring
// its own. Explicit timeouts and per-host connection-pool limits mean a
// stalled replica can never hang a submission (or a probe) indefinitely,
// and a flapping one cannot leak connections. Generation legitimately
// takes a while, so the submission client's overall timeout is generous
// — the router's AttemptTimeout is the tight bound; this is the
// backstop. Probes and snapshots must answer fast or the replica is not
// healthy, so they get a short deadline.
var (
	defaultTransport = &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:          64,
		MaxIdleConnsPerHost:   8,
		MaxConnsPerHost:       16,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   2 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
	defaultSubmitClient = &http.Client{Transport: defaultTransport, Timeout: 2 * time.Minute}
	defaultProbeClient  = &http.Client{Transport: defaultTransport, Timeout: 2 * time.Second}
)

// HTTPBackend speaks the JSON API that Handler serves, making the router
// a multi-process front end: Generate posts /v1/generate, Snapshot reads
// /v1/metrics, Healthy probes /readyz (which tenderserve flips to 503
// while draining).
type HTTPBackend struct {
	// BaseURL is the replica's root, e.g. "http://127.0.0.1:8081".
	BaseURL string
	// Client overrides the shared default submission client (bounded
	// dial/TLS timeouts, per-host connection caps, 2-minute overall
	// backstop). Probes and snapshots use it too when set; otherwise they
	// go through a short-deadline probe client.
	Client *http.Client
	// Chaos, when non-nil, injects seeded faults into every submission;
	// a crash decision degrades to a transport error (a remote process
	// cannot be killed from here).
	Chaos *chaos.Injector
	// ID names this backend in chaos decisions (informational).
	ID string
}

func (b *HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return defaultSubmitClient
}

func (b *HTTPBackend) probeClient() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return defaultProbeClient
}

// Generate posts the request and maps the replica's HTTP status back to
// the serve error vocabulary through the status table Handler answers
// from, so the router's retry policy is identical in-process and over
// the wire.
func (b *HTTPBackend) Generate(ctx context.Context, req serve.Request) (serve.Result, error) {
	if err := chaosSubmit(ctx, b.Chaos, b.ID, nil); err != nil {
		return serve.Result{}, err
	}
	body, err := json.Marshal(generateRequest{Prompt: req.Prompt, MaxNewTokens: req.MaxNewTokens,
		Scheme: req.Scheme, Temperature: req.Temperature, Seed: req.Seed})
	if err != nil {
		return serve.Result{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.BaseURL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return serve.Result{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := b.client().Do(hreq)
	if err != nil {
		// Connection-level failure: the replica is unreachable. Wrap so the
		// router can classify it as retriable-and-mark-down.
		return serve.Result{}, fmt.Errorf("%w: %v", ErrReplicaUnreachable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return serve.Result{}, errorForStatus(resp.StatusCode)
	}
	var out generateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return serve.Result{}, fmt.Errorf("%w: decoding response: %v", ErrReplicaUnreachable, err)
	}
	return serve.Result{
		ID: out.ID, Scheme: out.Scheme, Tokens: out.Tokens,
		TTFT:          time.Duration(out.TTFTMs * float64(time.Millisecond)),
		Latency:       time.Duration(out.LatencyMs * float64(time.Millisecond)),
		PrefillTokens: out.PrefillTokens,
	}, nil
}

// Snapshot reads /v1/metrics; ok=false when the replica is unreachable
// or does not answer within the probe deadline.
func (b *HTTPBackend) Snapshot() (serve.Snapshot, bool) {
	resp, err := b.probeClient().Get(b.BaseURL + "/v1/metrics")
	if err != nil {
		return serve.Snapshot{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Snapshot{}, false
	}
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return serve.Snapshot{}, false
	}
	return snap, true
}

// Healthy probes /readyz: 200 = ready; 503 (draining), other statuses,
// connection errors and probe-deadline stalls are all unready.
func (b *HTTPBackend) Healthy() bool {
	resp, err := b.probeClient().Get(b.BaseURL + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Drain is remote-initiated shutdown-from-the-router; tenderserve drains
// on SIGTERM rather than exposing a drain endpoint, so the HTTP backend
// only observes the transition (readyz flips, generates 503) — there is
// nothing to invoke remotely.
func (b *HTTPBackend) Drain(ctx context.Context) error { return nil }

// ErrReplicaUnreachable wraps connection-level failures of an HTTP
// backend (dial refused, mid-stream cut, garbled response): the request
// never ran to completion on that replica, so the router retries it
// elsewhere and takes the replica out of rotation.
var ErrReplicaUnreachable = errors.New("router: replica unreachable")
