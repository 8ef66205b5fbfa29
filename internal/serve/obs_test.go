package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"tender/internal/model"
	"tender/internal/obs"
)

// TestTraceReconstructsSnapshot is the trace/metrics cross-check: the
// Chrome trace exported after a KV-pressure run must reconstruct the same
// completed-request and preemption counts as the metrics snapshot — the
// two observability surfaces cannot disagree about what happened.
func TestTraceReconstructsSnapshot(t *testing.T) {
	m := model.New(model.TinyConfig())
	trace := kvPressureTrace(m, 3)
	tracer := obs.NewTracer(1 << 16)
	srv, err := New(Config{
		Model: m, Engines: map[string]model.Engine{"fp32": model.Exact{}},
		MaxBatch: 4, QueueDepth: 8, PrefillChunk: 4,
		KVBudgetRows: 48, KVPageRows: 8,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, snap := preloadAndRun(t, srv, trace, 0, 7)
	if snap.Completed != int64(len(trace)) {
		t.Fatalf("completed %d, want %d", snap.Completed, len(trace))
	}
	if snap.Preemptions < 1 {
		t.Fatal("scenario never preempted; the reconstruction check needs pressure")
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var completes, preempts, iterations int64
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "i" && e.Name == "complete":
			completes++
		case e.Ph == "i" && e.Name == "preempt":
			preempts++
		case e.Ph == "X" && strings.HasPrefix(e.Name, "iteration"):
			iterations++
		}
	}
	if completes != snap.Completed {
		t.Fatalf("trace shows %d completions, snapshot %d", completes, snap.Completed)
	}
	if preempts != snap.Preemptions {
		t.Fatalf("trace shows %d preemptions, snapshot %d", preempts, snap.Preemptions)
	}
	if iterations != snap.Iterations {
		t.Fatalf("trace shows %d iterations, snapshot %d", iterations, snap.Iterations)
	}

	// The JSONL export of the same run must be line-parseable with the
	// matching terminal-event count.
	buf.Reset()
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var jsonlCompletes int64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("JSONL line does not parse: %v\n%s", err, sc.Text())
		}
		if obj["kind"] == "complete" {
			jsonlCompletes++
		}
	}
	if jsonlCompletes != snap.Completed {
		t.Fatalf("JSONL shows %d completions, snapshot %d", jsonlCompletes, snap.Completed)
	}
}

// TestStageHistogramsPopulated checks the per-stage timing plumbing: a
// completed run observes queue-wait/prefill/decode once per request,
// preempted time only for preempted requests, and per-spec fused-step
// timing whenever fused decode ran.
func TestStageHistogramsPopulated(t *testing.T) {
	m := model.New(model.TinyConfig())
	trace := kvPressureTrace(m, 3)
	srv, err := New(Config{
		Model: m, Engines: map[string]model.Engine{"fp32": model.Exact{}},
		MaxBatch: 4, QueueDepth: 8, PrefillChunk: 4,
		KVBudgetRows: 48, KVPageRows: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, snap := preloadAndRun(t, srv, trace, 0, 11)
	want := snap.Completed
	for name, got := range map[string]int64{
		"queue_wait": snap.StageQueueWait.Count,
		"prefill":    snap.StagePrefill.Count,
		"decode":     snap.StageDecode.Count,
		"latency":    snap.LatencyHist.Count,
		"ttft":       snap.TTFTHist.Count,
	} {
		if got != want {
			t.Errorf("stage %s observed %d requests, want %d", name, got, want)
		}
	}
	if snap.Preemptions > 0 && snap.StagePreempted.Count == 0 {
		t.Error("requests were preempted but no preempted time was observed")
	}
	if snap.FusedDecodeTokens > 0 {
		fs, ok := snap.FusedStep["fp32"]
		if !ok || fs.Count == 0 {
			t.Errorf("fused decode ran but no fused-step timing recorded: %+v", snap.FusedStep)
		}
	}
}

// TestPrometheusExposition checks the /metrics rendering over a live run:
// parseable line shapes, no duplicate TYPE declarations, and the core
// family names present and stable.
func TestPrometheusExposition(t *testing.T) {
	m := model.New(model.TinyConfig())
	trace := kvPressureTrace(m, 3)
	tracer := obs.NewTracer(4096)
	srv, err := New(Config{
		Model: m, Engines: map[string]model.Engine{"fp32": model.Exact{}},
		MaxBatch: 4, QueueDepth: 8, PrefillChunk: 4,
		KVBudgetRows: 48, KVPageRows: 8,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	preloadAndRun(t, srv, trace, 0, 5)

	var buf bytes.Buffer
	if err := srv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	types := map[string]int{}
	families := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[fields[2]]++
			families[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		// Sample lines: name[{labels}] value
		if i := strings.LastIndexByte(line, ' '); i <= 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
	}
	for fam, n := range types {
		if n > 1 {
			t.Fatalf("family %s declared %d times", fam, n)
		}
	}
	for _, fam := range []string{
		"tender_requests_completed_total",
		"tender_decode_tokens_total",
		"tender_decode_tokens_per_sec_10s",
		"tender_preemptions_total",
		"tender_stage_seconds",
		"tender_latency_seconds",
		"tender_ttft_seconds",
		"tender_fused_step_seconds",
		"tender_trace_events_total",
	} {
		if !families[fam] {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	if !strings.Contains(text, `tender_stage_seconds_bucket{stage="decode",le="+Inf"}`) {
		t.Error("stage histogram missing its +Inf bucket")
	}
	// Two consecutive renders must declare the identical family sequence —
	// the stability contract a scraper relies on.
	var buf2 bytes.Buffer
	if err := srv.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	typeLines := func(s string) []string {
		var out []string
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "# TYPE ") {
				out = append(out, l)
			}
		}
		return out
	}
	a, b := typeLines(text), typeLines(buf2.String())
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("family declaration order changed between renders")
	}
}

// TestMetricsTTFTAcceptsZero pins the fix for zero-duration TTFTs being
// dropped: a completion whose first token was timed at exactly the
// enqueue instant still lands in the TTFT histogram, while a
// completion with no timed first token records nothing.
func TestMetricsTTFTAcceptsZero(t *testing.T) {
	m := newMetrics("fp32", 0, 0, nil, nil, nil)
	m.complete(5*time.Millisecond, 0, true)
	m.complete(5*time.Millisecond, 0, false)
	s := m.Snapshot()
	if s.TTFTHist.Count != 1 {
		t.Fatalf("TTFT histogram observed %d samples, want exactly the zero-duration one", s.TTFTHist.Count)
	}
	if s.LatencyHist.Count != 2 {
		t.Fatalf("latency histogram observed %d, want 2", s.LatencyHist.Count)
	}
}

// TestWindowedTokensPerSec drives the 10 s throughput window with an
// injected clock: the windowed rate must follow the recent seconds while
// the lifetime average keeps diluting.
func TestWindowedTokensPerSec(t *testing.T) {
	m := newMetrics("fp32", 0, 0, nil, nil, nil)
	base := m.start
	at := func(sec int) { m.now = func() time.Time { return base.Add(time.Duration(sec) * time.Second) } }

	// 100 tokens/s for the first 5 seconds.
	for sec := 0; sec < 5; sec++ {
		at(sec)
		m.iteration(1, 0, 100, 0, nil, 0)
	}
	at(5)
	s := m.Snapshot()
	if s.TokensPerSec10s < 99 || s.TokensPerSec10s > 101 {
		t.Fatalf("windowed rate %.1f during steady load, want ~100", s.TokensPerSec10s)
	}

	// Then silence: 30 s later the window is empty but the lifetime
	// average still remembers the burst.
	at(35)
	s = m.Snapshot()
	if s.TokensPerSec10s != 0 {
		t.Fatalf("windowed rate %.1f after 30 s idle, want 0", s.TokensPerSec10s)
	}
	if s.TokensPerSec == 0 {
		t.Fatal("lifetime rate should still be nonzero")
	}

	// A fresh burst dominates the window immediately.
	at(36)
	m.iteration(1, 0, 500, 0, nil, 0)
	at(37)
	s = m.Snapshot()
	if s.TokensPerSec10s < 49 || s.TokensPerSec10s > 51 {
		t.Fatalf("windowed rate %.1f after fresh 500-token burst over 10 s window, want ~50", s.TokensPerSec10s)
	}
}

// TestObsConcurrentHammer races every concurrent surface at once:
// generating clients, snapshot readers, Prometheus renders and trace
// exports all run against a live server. The assertions are light — the
// point is the race detector.
func TestObsConcurrentHammer(t *testing.T) {
	m := model.New(model.TinyConfig())
	tracer := obs.NewTracer(2048)
	srv, err := New(Config{
		Model: m, Engines: map[string]model.Engine{"fp32": model.Exact{}},
		MaxBatch: 4, QueueDepth: 32, PrefillChunk: 4,
		KVBudgetRows: 64, KVPageRows: 8,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Metrics().Snapshot()
			srv.WritePrometheus(&bytes.Buffer{})
			tracer.WriteChromeTrace(&bytes.Buffer{})
			tracer.Events()
		}
	}()

	trace := kvPressureTrace(m, 8)
	var wg sync.WaitGroup
	for i, spec := range trace {
		wg.Add(1)
		go func(i int, prompt []int, newTok int) {
			defer wg.Done()
			_, err := srv.Generate(context.Background(), Request{
				Prompt: prompt, MaxNewTokens: newTok, Seed: uint64(i),
			})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i, spec.Prompt, spec.NewTokens)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	snap := srv.Metrics().Snapshot()
	srv.Stop()
	if snap.Completed != int64(len(trace)) {
		t.Fatalf("completed %d, want %d", snap.Completed, len(trace))
	}
}
