package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
)

// waitAccepted returns once srv has accepted a submission — given it an
// id, which happens only past the draining check, so a drain begun after
// this must let that request finish — or after 5 s. The submitters run
// inside the public Generate on other goroutines, so polling is the only
// way to see it; InFlight is not enough, since it counts a request before
// its draining check.
func waitAccepted(srv *Server) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		srv.idMu.Lock()
		n := srv.nextID
		srv.idMu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDrainBounded: Drain lets every accepted request finish, refuses
// new submissions with ErrDraining (counted in metrics and exported),
// and returns once in-flight work is delivered — the surface the router
// and tenderserve's signal handler drain through.
func TestDrainBounded(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"fp32"}, engine.BuildOptions{Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Model: m, Engines: engines, MaxBatch: 2})

	// Keep work in flight while the drain begins.
	trace := tinyTrace(m, 8, 3)
	var wg sync.WaitGroup
	errs := make([]error, len(trace))
	for i := range trace {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Generate(context.Background(), Request{
				Prompt: trace[i].Prompt, MaxNewTokens: trace[i].NewTokens,
			})
		}(i)
	}
	waitAccepted(srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.InFlight() != 0 {
		t.Fatalf("drain returned with %d requests in flight", srv.InFlight())
	}
	wg.Wait()
	// Every submission either completed before the drain cut in or was
	// refused with ErrDraining — never lost, never failed another way.
	completed, refused := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrDraining):
			refused++
		default:
			t.Fatalf("unexpected error during drain: %v", err)
		}
	}
	if completed == 0 {
		t.Fatal("no request completed across the drain")
	}

	// Draining is sticky: new submissions keep failing fast.
	if !srv.Draining() {
		t.Fatal("server not draining after Drain")
	}
	_, err = srv.Generate(context.Background(), Request{Prompt: []int{1, 2}, MaxNewTokens: 1})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Generate error = %v, want ErrDraining", err)
	}
	snap := srv.Metrics().Snapshot()
	if want := int64(refused + 1); snap.DrainRejected != want {
		t.Fatalf("DrainRejected = %d, want %d", snap.DrainRejected, want)
	}
	var b strings.Builder
	if err := srv.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tender_requests_drain_rejected_total") {
		t.Fatal("prometheus export missing tender_requests_drain_rejected_total")
	}
}

// TestDrainExpires: a drain bounded by an already-cancelled context
// reports the deadline instead of hanging, and the in-flight request
// still completes afterwards (drain never cancels accepted work).
func TestDrainExpires(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"fp32"}, engine.BuildOptions{Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Model: m, Engines: engines, MaxBatch: 2})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Generate(context.Background(), Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 32})
		done <- err
	}()
	waitAccepted(srv)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// nil only if the request outran the drain entirely; otherwise the
	// cancelled bound must surface instead of hanging.
	if err := srv.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("expired drain error = %v, want context.Canceled", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed across expired drain: %v", err)
	}
}
