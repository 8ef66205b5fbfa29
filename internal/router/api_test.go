package router

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"tender/internal/chaos"
	"tender/internal/model"
	"tender/internal/serve"
)

// call sends one request to the API and returns its status, headers
// and body.
func call(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// generate posts body to /v1/generate and decodes a 200 answer.
func generate(t *testing.T, url, body string) generateResponse {
	t.Helper()
	code, _, b := call(t, http.MethodPost, url+"/v1/generate", body)
	if code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", body, code, b)
	}
	var out generateResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHandler drives the tenderserve HTTP API over one replica: edge
// validation, scheme resolution, determinism across identical requests,
// the read-only endpoints, and drain.
func TestHandler(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32", "fp16"})
	srv := startReplica(t, m, engines, "fp16")
	api := ServerAPI(srv)
	api.Model, api.Schemes, api.Default = m.Cfg, []string{"fp32", "fp16"}, "fp16"
	ts := httptest.NewServer(Handler(api))
	defer ts.Close()

	long, _ := json.Marshal(make([]int, m.Cfg.MaxSeq))
	for _, c := range []struct {
		name, body string
		code       int
	}{
		{"malformed JSON", `{"prompt":[1,2`, http.StatusBadRequest},
		{"empty prompt", `{"prompt":[],"max_new_tokens":2}`, http.StatusBadRequest},
		{"prompt at MaxSeq", `{"prompt":` + string(long) + `,"max_new_tokens":2}`, http.StatusBadRequest},
		{"token outside vocab", `{"prompt":[1,64],"max_new_tokens":2}`, http.StatusBadRequest},
		{"unknown scheme", `{"prompt":[1,2],"max_new_tokens":2,"scheme":"nope"}`, http.StatusNotFound},
		{"scheme not hosted", `{"prompt":[1,2],"max_new_tokens":2,"scheme":"tender"}`, http.StatusNotFound},
	} {
		if code, _, b := call(t, http.MethodPost, ts.URL+"/v1/generate", c.body); code != c.code {
			t.Errorf("%s: status %d (%s), want %d", c.name, code, b, c.code)
		}
	}

	for _, scheme := range []string{"FP32", "exact"} {
		if got := generate(t, ts.URL, `{"prompt":[7,3,9],"max_new_tokens":4,"scheme":"`+scheme+`"}`).Scheme; got != "fp32" {
			t.Errorf("scheme %q served by %q, want fp32", scheme, got)
		}
	}
	if got := generate(t, ts.URL, `{"prompt":[7,3,9],"max_new_tokens":4}`).Scheme; got != "fp16" {
		t.Errorf("request naming no scheme served by %q, want the default fp16", got)
	}
	for _, body := range []string{
		`{"prompt":[7,3,9],"max_new_tokens":8,"scheme":"fp32"}`,
		`{"prompt":[7,3,9],"max_new_tokens":8,"scheme":"fp32","temperature":1.5,"seed":42}`,
	} {
		a, b := generate(t, ts.URL, body), generate(t, ts.URL, body)
		if len(a.Tokens) != 8 || !reflect.DeepEqual(a.Tokens, b.Tokens) {
			t.Errorf("%s: tokens %v then %v, want 8 identical", body, a.Tokens, b.Tokens)
		}
	}

	code, _, b := call(t, http.MethodGet, ts.URL+"/v1/schemes", "")
	var schemes map[string]any
	if err := json.Unmarshal(b, &schemes); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/schemes: %d %v", code, err)
	}
	want := map[string]any{"schemes": []any{"fp32", "fp16"}, "default": "fp16", "model": "tiny"}
	if !reflect.DeepEqual(schemes, want) {
		t.Errorf("/v1/schemes = %v, want %v", schemes, want)
	}
	code, _, b = call(t, http.MethodGet, ts.URL+"/v1/metrics", "")
	var snap serve.Snapshot
	if err := json.Unmarshal(b, &snap); code != http.StatusOK || err != nil || snap.Completed == 0 {
		t.Errorf("/v1/metrics: %d, %v, %d completed", code, err, snap.Completed)
	}
	if code, _, b = call(t, http.MethodGet, ts.URL+"/metrics", ""); code != http.StatusOK || !strings.Contains(string(b), "tender_decode_tokens_total") {
		t.Errorf("/metrics: %d, exposition lacks tender_decode_tokens_total", code)
	}
	if code, _, _ = call(t, http.MethodGet, ts.URL+"/debug/trace", ""); code != http.StatusNotFound {
		t.Errorf("/debug/trace without a tracer: %d, want 404", code)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _, _ := call(t, http.MethodGet, ts.URL+path, ""); code != http.StatusOK {
			t.Errorf("%s before drain: %d, want 200", path, code)
		}
	}
	srv.BeginDrain()
	if code, _, _ := call(t, http.MethodGet, ts.URL+"/readyz", ""); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d, want 503", code)
	}
	if code, _, _ := call(t, http.MethodGet, ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Errorf("/healthz while draining: %d, want 200", code)
	}
	code, hdr, _ := call(t, http.MethodPost, ts.URL+"/v1/generate", `{"prompt":[1,2],"max_new_tokens":2}`)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "1" {
		t.Errorf("generate while draining: %d, Retry-After %q; want 503, 1", code, hdr.Get("Retry-After"))
	}
}

// TestHandlerTimeout: a request whose timeout_ms runs out answers 504.
// The replica vetoes every KV admission, so the request cannot finish
// inside its 1 ms however fast the host is.
func TestHandlerTimeout(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32"})
	srv, err := serve.New(serve.Config{
		Model: m, Engines: engines, DefaultScheme: "fp32",
		KVPageRows: testPageRows,
		Chaos:      chaos.New(chaos.Config{Seed: 1, KVExhaustRate: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	api := ServerAPI(srv)
	api.Model = m.Cfg
	ts := httptest.NewServer(Handler(api))
	defer ts.Close()
	code, _, b := call(t, http.MethodPost, ts.URL+"/v1/generate", `{"prompt":[1,2,3],"max_new_tokens":4,"timeout_ms":1}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms 1: %d %s, want 504", code, b)
	}
}
