package router

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tender/internal/model"
	"tender/internal/serve"
)

// recordingGen is a stub serve.Generator: it keeps the last request and
// the context deadline it arrived with, and answers with the statusTable
// error the request's seed picks (or success when the seed picks none).
type recordingGen struct {
	called      bool
	req         serve.Request
	ctxDeadline time.Time
}

func (g *recordingGen) Generate(ctx context.Context, req serve.Request) (serve.Result, error) {
	g.called, g.req = true, req
	g.ctxDeadline, _ = ctx.Deadline()
	if i := int(req.Seed % uint64(len(statusTable)+1)); i < len(statusTable) {
		return serve.Result{}, statusTable[i].err
	}
	return serve.Result{Scheme: req.Scheme, Tokens: []int{1}}, nil
}

// FuzzGenerateRequest sends arbitrary bytes to POST /v1/generate over a
// stub generator. Every answer must carry a status statusTable can
// produce (or 200), every request that reaches the generator must pass
// serve.ValidateRequest, and any deadline it carries must lie after the
// moment the handler was called — a timeout_ms that wraps time.Duration
// would put it in the past.
func FuzzGenerateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"prompt":[1,2,3],"max_new_tokens":2,"timeout_ms":10000000000000}`,
		`{"prompt":[1,2,3],"max_new_tokens":2,"timeout_ms":9223372036854}`,
		`{"prompt":[7,3,9],"max_new_tokens":4,"scheme":"FP32","seed":3,"timeout_ms":1}`,
		`{"prompt":[],"max_new_tokens":2}`,
		`{"prompt":[1,64]}`,
		`{"prompt":[1,2`,
	} {
		f.Add([]byte(seed))
	}
	cfg := model.TinyConfig()
	codes := map[int]bool{http.StatusOK: true}
	for _, row := range statusTable {
		codes[row.code] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		gen := &recordingGen{}
		h := Handler(API{Gen: gen, Model: cfg, Schemes: []string{"fp32"}, Default: "fp32"})
		rec := httptest.NewRecorder()
		called := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body)))
		if !codes[rec.Code] {
			t.Fatalf("status %d is not one statusTable produces (body %q)", rec.Code, rec.Body.Bytes())
		}
		if !gen.called {
			return
		}
		if err := serve.ValidateRequest(cfg, gen.req); err != nil {
			t.Fatalf("generator received an invalid request: %v", err)
		}
		for _, d := range []time.Time{gen.req.Deadline, gen.ctxDeadline} {
			if !d.IsZero() && !d.After(called) {
				t.Fatalf("deadline %v is not after the call at %v", d, called)
			}
		}
	})
}
