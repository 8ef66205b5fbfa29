package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tender/internal/model"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// LoadConfig drives a deterministic closed-loop load test: Clients
// concurrent virtual users replay a fixed request trace, each submitting
// its next request the moment the previous one completes. The trace is
// deterministic in its seed, and per-request outputs are deterministic in
// the request (greedy decode, or sampling with the per-request seed), so
// the same (trace, server config) pair always yields the same tokens —
// only timings vary.
type LoadConfig struct {
	Trace   []workload.RequestSpec
	Clients int
	// Scheme routes every request to one hosted engine ("" = default).
	Scheme string
	// Temperature/SeedBase configure sampled decoding (0 = greedy).
	Temperature float64
	SeedBase    uint64
	// Timeout bounds each request (0 = none).
	Timeout time.Duration
	// PoissonMean, if positive, switches RunLoad from the closed loop to
	// open-loop Poisson arrivals: request i is submitted at the i-th
	// cumulative exponential gap with this mean, drawn deterministically
	// from ArrivalSeed (see PoissonArrivals). Clients is ignored — every
	// request gets its own submitter — so concurrency is governed by the
	// arrival process and the server's admission control, the regime the
	// memory-pressure scenarios probe.
	PoissonMean time.Duration
	ArrivalSeed uint64
}

// LoadReport summarizes a load run.
type LoadReport struct {
	Requests      int     `json:"requests"`
	Failed        int     `json:"failed"`
	PrefillTokens int64   `json:"prefill_tokens"`
	DecodeTokens  int64   `json:"decode_tokens"`
	WallSeconds   float64 `json:"wall_seconds"`
	TokensPerSec  float64 `json:"decode_tokens_per_sec"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	// Outputs holds each request's generated tokens, indexed like the
	// trace (nil for failed requests). Excluded from JSON reports.
	Outputs [][]int `json:"-"`
}

// PoissonArrivals returns n cumulative arrival offsets whose gaps are
// exponentially distributed with the given mean — a Poisson arrival
// process — drawn deterministically from seed: the same (n, mean, seed)
// always yields the same schedule.
func PoissonArrivals(n int, mean time.Duration, seed uint64) []time.Duration {
	rng := tensor.NewRNG(seed ^ 0xa221)
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		at += -math.Log(1-rng.Float64()) * float64(mean)
		out[i] = time.Duration(at)
	}
	return out
}

// Generator is anything that can serve a Request: a *Server, or a
// multi-replica front end (router.Router) fanning requests out to several.
// The load harness and the determinism gates are written against this, so
// every serving topology is exercised by the same machinery.
type Generator interface {
	Generate(ctx context.Context, req Request) (Result, error)
}

// RunLoad replays the trace against a started Generator and blocks until
// every request completes: closed-loop (Clients virtual users, each
// submitting its next request when the previous finishes) by default, or
// open-loop Poisson arrivals when PoissonMean is set.
func RunLoad(srv Generator, cfg LoadConfig) LoadReport {
	n := len(cfg.Trace)
	outputs := make([][]int, n)
	results := make([]Result, n)
	errs := make([]error, n)
	submit := func(i int) {
		spec := cfg.Trace[i]
		req := Request{
			Prompt:       spec.Prompt,
			MaxNewTokens: spec.NewTokens,
			Scheme:       cfg.Scheme,
			Temperature:  cfg.Temperature,
			Seed:         cfg.SeedBase + uint64(i),
		}
		ctx := context.Background()
		var cancel context.CancelFunc
		if cfg.Timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		}
		r, err := srv.Generate(ctx, req)
		if cancel != nil {
			cancel()
		}
		results[i] = r
		errs[i] = err
		if err == nil {
			outputs[i] = r.Tokens
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	if cfg.PoissonMean > 0 {
		arrivals := PoissonArrivals(n, cfg.PoissonMean, cfg.ArrivalSeed)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int, at time.Duration) {
				defer wg.Done()
				if d := time.Until(start.Add(at)); d > 0 {
					time.Sleep(d)
				}
				submit(i)
			}(i, arrivals[i])
		}
	} else {
		clients := cfg.Clients
		if clients <= 0 {
			clients = 1
		}
		if clients > n {
			clients = n
		}
		var next int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= n {
						return
					}
					submit(i)
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	rep := LoadReport{Requests: n, WallSeconds: wall, Outputs: outputs}
	for i := range results {
		if errs[i] != nil {
			rep.Failed++
			continue
		}
		rep.DecodeTokens += int64(len(results[i].Tokens))
		rep.PrefillTokens += int64(results[i].PrefillTokens)
	}
	if wall > 0 {
		rep.TokensPerSec = float64(rep.DecodeTokens) / wall
	}
	// Generators without server metrics (multi-replica fronts) report the
	// per-replica mean batch through their own snapshots instead.
	if ms, ok := srv.(interface{ Metrics() *Metrics }); ok {
		rep.MeanBatchSize = ms.Metrics().Snapshot().MeanBatchSize
	}
	return rep
}

// DecodeUnbatched is the reference single-threaded decode path: it runs
// the trace one request at a time through a bare model.Session, with the
// same token-selection rule as the scheduler. The serving tests assert the
// scheduler's outputs are bit-identical to this.
func DecodeUnbatched(m *model.Model, eng model.Engine, trace []workload.RequestSpec, temperature float64, seedBase uint64) [][]int {
	out := make([][]int, len(trace))
	for i, spec := range trace {
		out[i] = decodeOne(m, eng, spec, temperature, seedBase+uint64(i))
	}
	return out
}

func decodeOne(m *model.Model, eng model.Engine, spec workload.RequestSpec, temperature float64, seed uint64) []int {
	maxNew := spec.NewTokens
	if maxNew <= 0 {
		maxNew = 1
	}
	if limit := m.Cfg.MaxSeq - len(spec.Prompt) + 1; maxNew > limit {
		maxNew = limit
	}
	sess := m.NewSession(eng, len(spec.Prompt)+maxNew)
	defer sess.ReleaseKV()
	rng := newRequestRNG(seed)
	logits := sess.Append(spec.Prompt)
	out := make([]int, 0, maxNew)
	row := logits.Row(logits.Rows - 1)
	for {
		var tok int
		if temperature > 0 {
			tok = model.Sample(row, temperature, rng.Float64())
		} else {
			tok = model.Greedy(row)
		}
		out = append(out, tok)
		if len(out) >= maxNew {
			return out
		}
		row = sess.Append([]int{tok}).Row(0)
	}
}
