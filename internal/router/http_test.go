package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tender/internal/chaos"
	"tender/internal/model"
	"tender/internal/serve"
)

// ownedPrompt returns a short prompt the affinity ring over ids assigns
// to owner.
func ownedPrompt(m *model.Model, ids []string, owner string) []int {
	ring := NewRing(ids, DefaultVNodes)
	for i := 0; ; i++ {
		p := []int{i % m.Cfg.Vocab, (i*3 + 1) % m.Cfg.Vocab, (i*7 + 2) % m.Cfg.Vocab}
		if ring.Owner(AffinityKey(p, testPageRows, DefaultAffinityChunks)) == owner {
			return p
		}
	}
}

// TestHTTPBackendMultiProcess fronts one replica over the wire next to
// an in-process one: requests route and return bit-identical tokens,
// snapshots flow back for load scoring, and killing the HTTP replica
// fails its owned requests over to the survivor and marks it Down.
func TestHTTPBackendMultiProcess(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32"})
	remote := startReplica(t, m, engines, "fp32")
	local := startReplica(t, m, engines, "fp32")
	api := ServerAPI(remote)
	api.Model = m.Cfg
	ts := httptest.NewServer(Handler(api))
	defer ts.Close()

	hb := &HTTPBackend{BaseURL: ts.URL}
	if !hb.Healthy() {
		t.Fatal("HTTP replica not healthy")
	}
	if _, ok := hb.Snapshot(); !ok {
		t.Fatal("HTTP snapshot unreachable")
	}

	r := startRouter(t, Config{
		Replicas: []Replica{
			{ID: "remote", Backend: hb},
			{ID: "local", Backend: InProc{Srv: local}},
		},
		PageRows: testPageRows,
	})
	trace := groupedTrace(m)
	rep := serve.RunLoad(r, serve.LoadConfig{Trace: trace, Clients: 2})
	if rep.Failed > 0 {
		t.Fatalf("%d requests failed through the HTTP backend", rep.Failed)
	}
	ref := serve.DecodeUnbatched(m, engines["fp32"], trace, 0, 0)
	for i := range trace {
		if len(rep.Outputs[i]) != len(ref[i]) {
			t.Fatalf("request %d: %d tokens, reference %d", i, len(rep.Outputs[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if rep.Outputs[i][j] != ref[i][j] {
				t.Fatalf("request %d token %d differs over the wire", i, j)
			}
		}
	}

	// Find a prompt the ring assigns to the remote replica, then kill the
	// replica: that request must fail over to the survivor, and the
	// unreachable backend must leave rotation.
	owned := ownedPrompt(m, []string{"local", "remote"}, "remote")
	ts.Close()
	if hb.Healthy() {
		t.Fatal("closed HTTP replica still reports healthy")
	}
	res, err := r.Generate(context.Background(), serve.Request{Prompt: owned, MaxNewTokens: 2})
	if err != nil {
		t.Fatalf("failover generate: %v", err)
	}
	if len(res.Tokens) != 2 {
		t.Fatalf("failover generate returned %d tokens, want 2", len(res.Tokens))
	}
	if got := r.States()["remote"]; got != StateDown {
		t.Fatalf("unreachable HTTP replica state = %v, want Down", got)
	}
	if snap := r.Snapshot(); snap.Failovers == 0 {
		t.Fatal("no failover recorded for the unreachable replica")
	}
}

// TestReplicaPanicIsInternalOverTheWire: a replica whose every scheduler
// step panics answers 500; HTTPBackend maps that back to
// serve.ErrInternal, the router returns it without retrying (a
// deterministic panic would repeat on every replica), and a front end
// over the router answers 500 as well.
func TestReplicaPanicIsInternalOverTheWire(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32"})
	panicky, err := serve.New(serve.Config{
		Model: m, Engines: engines, DefaultScheme: "fp32",
		MaxBatch: 4, PrefillChunk: 8, KVPageRows: testPageRows,
		Chaos: chaos.New(chaos.Config{Seed: 1, PanicRate: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	panicky.Start()
	t.Cleanup(panicky.Stop)
	replicaAPI := ServerAPI(panicky)
	replicaAPI.Model = m.Cfg
	replica := httptest.NewServer(Handler(replicaAPI))
	defer replica.Close()
	healthy := startReplica(t, m, engines, "fp32")
	r := startRouter(t, Config{
		Replicas: []Replica{
			{ID: "panicky", Backend: &HTTPBackend{BaseURL: replica.URL}},
			{ID: "healthy", Backend: InProc{Srv: healthy}},
		},
		PageRows: testPageRows,
	})
	prompt := ownedPrompt(m, []string{"panicky", "healthy"}, "panicky")

	if _, err := r.Generate(context.Background(), serve.Request{Prompt: prompt, MaxNewTokens: 2}); !errors.Is(err, serve.ErrInternal) {
		t.Fatalf("router error = %v, want serve.ErrInternal", err)
	}
	frontAPI := RouterAPI(r)
	frontAPI.Model = m.Cfg
	front := httptest.NewServer(Handler(frontAPI))
	defer front.Close()
	body, _ := json.Marshal(generateRequest{Prompt: prompt, MaxNewTokens: 2})
	resp, err := http.Post(front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("front end answered %d, want 500", resp.StatusCode)
	}
	snap := r.Snapshot()
	if snap.Failovers != 0 {
		t.Fatalf("internal error was retried: %d failovers", snap.Failovers)
	}
	if got := healthy.Metrics().Snapshot().Completed; got != 0 {
		t.Fatalf("healthy replica served %d requests; the internal error must not fail over", got)
	}
}

// TestStatusTable pins both directions of the status table: every serve
// error's HTTP status (each from a listed row, not the default branch),
// every status's error, and which of those the router retries.
func TestStatusTable(t *testing.T) {
	errCases := []struct {
		err  error
		code int
	}{
		{serve.ErrInvalidRequest, http.StatusBadRequest},
		{serve.ErrKVBudget, http.StatusBadRequest},
		{serve.ErrUnknownScheme, http.StatusNotFound},
		{serve.ErrQueueFull, http.StatusTooManyRequests},
		{serve.ErrInternal, http.StatusInternalServerError},
		{serve.ErrDraining, http.StatusServiceUnavailable},
		{serve.ErrOverloaded, http.StatusServiceUnavailable},
		{serve.ErrStopped, http.StatusServiceUnavailable},
		{ErrNoReplicas, http.StatusServiceUnavailable},
		{serve.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusBadRequest},
	}
	if len(errCases) != len(statusTable) {
		t.Errorf("pinned %d errors, status table has %d rows", len(errCases), len(statusTable))
	}
	for _, c := range errCases {
		if got := statusFor(fmt.Errorf("wrapped: %w", c.err)); got != c.code {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.code)
		}
		listed := false
		for _, row := range statusTable {
			listed = listed || row.err == c.err
		}
		if !listed {
			t.Errorf("%v reaches its status through the default branch", c.err)
		}
	}
	for _, c := range []struct {
		code      int
		err       error
		retriable bool
	}{
		{http.StatusBadRequest, serve.ErrInvalidRequest, false},
		{http.StatusNotFound, serve.ErrUnknownScheme, false},
		{http.StatusTooManyRequests, serve.ErrQueueFull, true},
		{http.StatusInternalServerError, serve.ErrInternal, false},
		{http.StatusServiceUnavailable, serve.ErrDraining, true},
		{http.StatusGatewayTimeout, serve.ErrDeadlineExceeded, false},
	} {
		err := errorForStatus(c.code)
		if err != c.err {
			t.Errorf("errorForStatus(%d) = %v, want %v", c.code, err, c.err)
		}
		if got := statusFor(err); got != c.code {
			t.Errorf("status %d does not round-trip: %d", c.code, got)
		}
		if retriable(err) != c.retriable {
			t.Errorf("errorForStatus(%d) retriable = %v, want %v", c.code, retriable(err), c.retriable)
		}
	}
	if err := errorForStatus(http.StatusBadGateway); retriable(err) || statusFor(err) != http.StatusBadRequest {
		t.Errorf("unmapped status: error %v, retriable %v, status %d", err, retriable(err), statusFor(err))
	}
}
