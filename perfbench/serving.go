package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/serve"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// The deployment every workload runs. KV rows are positions; the budget
// holds every workload's live sessions plus a full prefix cache, so no
// workload is ever preempted. The prefix-cache cap keeps tenant-http's
// tenant prompts cached, and prefill-long's donations overflow it.
const (
	modelName       = "opt-6.7b"
	engineSpec      = "tender:int"
	engineBits      = 8
	kvPageRows      = 16
	kvBudgetRows    = 4096
	prefixCacheRows = 2048

	setupReps = 5 // set-ups per run; setup_s is their median
	warmup    = 1500 * time.Millisecond
	// minSamples completed requests give p90 its ten samples beyond.
	minSamples = 100
	// maxWindow bounds how far the window stretches to reach minSamples,
	// so that even a traced run, which measures twice, ends in time.
	maxWindow = 60 * time.Second
	// verifyCap bounds the requests checked against the reference decoder
	// per run; above it an evenly spaced subset is checked.
	verifyCap = 128
)

// evalStreams are the fixed sequences ppl_ratio is measured on. They do
// not depend on the seed, so ppl_ratio is the same in every run of the
// same code.
var evalStreams = []struct {
	stream workload.Stream
	seed   uint64
}{{workload.Wiki, 0xE7A1}, {workload.PTB, 0xE7A2}}

const evalLen = 128

// built is one set-up: the model and its calibrated engines.
type built struct {
	m       *model.Model
	engines map[string]model.Engine
	spec    string // the hosted engine's canonical key
	newDur  time.Duration
	bldDur  time.Duration
}

func buildEngines() (*built, error) {
	t0 := time.Now()
	m := model.New(model.Registry(modelName))
	t1 := time.Now()
	engines, err := engine.BuildEngines(m, []string{engineSpec}, engine.BuildOptions{Bits: engineBits, Serving: true})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", engineSpec, err)
	}
	t2 := time.Now()
	b := &built{m: m, engines: engines, newDur: t1.Sub(t0), bldDur: t2.Sub(t1)}
	for k := range engines {
		b.spec = k
	}
	return b, nil
}

func newServer(m *model.Model, engines map[string]model.Engine) (*serve.Server, error) {
	srv, err := serve.New(serve.Config{
		Model:           m,
		Engines:         engines,
		KVPageRows:      kvPageRows,
		KVBudgetRows:    kvBudgetRows,
		PrefixCache:     true,
		PrefixCacheRows: prefixCacheRows,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

// pplRatio is the quantized engine's perplexity over the fp32 reference's,
// averaged over the fixed evaluation streams.
func pplRatio(m *model.Model, eng model.Engine) float64 {
	var sum float64
	for _, es := range evalStreams {
		toks := workload.TokenStream(es.stream, es.seed, evalLen, m.Cfg.Vocab)
		temp := model.CalibrateTemperature(m, toks, 10)
		ref := m.Forward(toks, model.Exact{})
		r := model.TeacherPerplexityAgainst(ref, m, eng, toks, temp)
		sum += r.PPL / r.Base
	}
	return sum / float64(len(evalStreams))
}

// evalForwardMs is the median time of one full-sequence teacher-forced
// forward pass (model.Forward) over the evaluation streams.
func evalForwardMs(m *model.Model, eng model.Engine) float64 {
	var ts []float64
	for _, es := range evalStreams {
		toks := workload.TokenStream(es.stream, es.seed, evalLen, m.Cfg.Vocab)
		t0 := time.Now()
		m.Forward(toks, eng)
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts)
}

// logPhase reports on stderr how long a phase of the run took.
func logPhase(name string, t0 time.Time) time.Time {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "perfbench: %-10s %6.2fs\n", name, now.Sub(t0).Seconds())
	return now
}

// driveCfg shapes a closed-loop run.
type driveCfg struct {
	callers int
	seconds time.Duration
	pool    int
	// think is the longest pause a caller takes between an answer and its
	// next request; each pause is drawn uniformly from [0, think) with the
	// caller's own seeded generator. Without it, equal-length requests
	// that happen to finish together come back together and stay in
	// lockstep, and a run's figures depend on whether that happened.
	think time.Duration
	seed  uint64
}

// drive runs callers closed-loop clients, each submitting the next
// request of the pool as soon as its previous one is answered; their
// first requests are spread over the warm-up. The
// measured window opens after the warm-up and closes once it has lasted
// the requested seconds and holds minSamples completed requests (or at
// maxWindow). Clients stop submitting when it closes; drive returns once
// every request in flight has been answered.
func drive(cfg driveCfg, submit func(i int) outcome) (outs []outcome, w0, w1 time.Time, err error) {
	start := time.Now()
	w0 = start.Add(warmup)
	deadline := w0.Add(cfg.seconds)
	hard := w0.Add(maxWindow)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		measured int
		stopped  bool
		wg       sync.WaitGroup
	)
	for c := 0; c < cfg.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Staggered starts: callers that start together stay in step
			// (all prefilling, then all decoding) for many seconds.
			time.Sleep(time.Duration(c) * warmup / time.Duration(cfg.callers))
			rng := tensor.NewRNG(cfg.seed ^ uint64(c+1)*0x9e3779b97f4a7c15)
			for first := true; ; first = false {
				if !first {
					time.Sleep(time.Duration(rng.Float64() * float64(cfg.think)))
				}
				mu.Lock()
				done := stopped
				mu.Unlock()
				if done {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= cfg.pool {
					mu.Lock()
					if !stopped {
						stopped, w1 = true, time.Now()
						err = fmt.Errorf("request pool of %d exhausted", cfg.pool)
					}
					mu.Unlock()
					return
				}
				o := submit(i)
				mu.Lock()
				outs = append(outs, o)
				if o.err == nil && !o.start.Before(w0) {
					measured++
				}
				now := time.Now()
				if !stopped && ((now.After(deadline) && measured >= minSamples) || now.After(hard)) {
					stopped, w1 = true, now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(outs, func(a, b int) bool { return outs[a].idx < outs[b].idx })
	return outs, w0, w1, err
}

// windowStats are the end-to-end figures of one measured window.
type windowStats struct {
	ttftP50, ttftP90, tpotP50, tpotP90 float64
	edgeP50, edgeP90                   float64
	decodeRate, promptRate             float64
	sloOK                              float64
}

// summarize computes the window's figures. Latency percentiles come from
// the requests submitted and answered inside the window; rates prorate
// every request's tokens into it; slo_ok_frac counts every attempt.
func summarize(outs []outcome, w0, w1 time.Time, limits slo, http bool) (windowStats, error) {
	var ws windowStats
	var ttfts, tpots, edges []float64
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.start.Before(w0) || o.end.After(w1) {
			continue
		}
		ttfts = append(ttfts, o.ttftMs)
		edges = append(edges, o.edgeMs)
		if t, ok := tpot(o.latencyMs(), o.ttftMs, len(o.tokens)); ok {
			tpots = append(tpots, t)
		}
	}
	var bad []string
	pct := func(name string, xs []float64, q float64) float64 {
		v, ok := percentile(xs, q)
		if !ok {
			bad = append(bad, fmt.Sprintf("%s (%d samples)", name, len(xs)))
		}
		return v
	}
	ws.ttftP50 = pct("ttft p50", ttfts, 0.5)
	ws.ttftP90 = pct("ttft p90", ttfts, 0.9)
	ws.tpotP50 = pct("tpot p50", tpots, 0.5)
	ws.tpotP90 = pct("tpot p90", tpots, 0.9)
	if http {
		ws.edgeP50 = pct("edge p50", edges, 0.5)
		ws.edgeP90 = pct("edge p90", edges, 0.9)
	}
	if len(bad) > 0 {
		return ws, fmt.Errorf("too few samples for %v", bad)
	}
	secs := w1.Sub(w0).Seconds()
	p, d := windowTokens(outs, w0, w1)
	ws.promptRate, ws.decodeRate = p/secs, d/secs
	ws.sloOK = sloOKFrac(outs, limits)
	return ws, nil
}

func (ws windowStats) addE2E(e metrics) {
	e.set("ttft_p50_ms", ws.ttftP50, "ms")
	e.set("ttft_p90_ms", ws.ttftP90, "ms")
	e.set("tpot_p50_ms", ws.tpotP50, "ms")
	e.set("tpot_p90_ms", ws.tpotP90, "ms")
	e.set("decode_tok_per_s", ws.decodeRate, "tok/s")
	e.set("prompt_tok_per_s", ws.promptRate, "tok/s")
	e.set("slo_ok_frac", ws.sloOK, "frac")
}

// verify checks the answers of every run against serve.DecodeUnbatched on
// the same engine, request and seed, computing each reference once. It
// checks up to verifyCap distinct requests (an evenly spaced subset above
// that) on all cores and returns how many it checked.
func verify(m *model.Model, eng model.Engine, pool []workload.RequestSpec, temperature float64, seedBase uint64, runs ...[]outcome) (int, error) {
	var idx []int
	for _, outs := range runs {
		for i := range outs {
			if outs[i].err == nil {
				idx = append(idx, outs[i].idx)
			}
		}
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	if len(idx) > verifyCap {
		sub := make([]int, verifyCap)
		for k := range sub {
			sub[k] = idx[k*len(idx)/verifyCap]
		}
		idx = sub
	}
	ref := make(map[int][]int, len(idx))
	var mu sync.Mutex
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				toks := serve.DecodeUnbatched(m, eng, pool[i:i+1], temperature, seedBase+uint64(i))[0]
				mu.Lock()
				ref[i] = toks
				mu.Unlock()
			}
		}()
	}
	for _, i := range idx {
		work <- i
	}
	close(work)
	wg.Wait()
	for r, outs := range runs {
		for k := range outs {
			o := &outs[k]
			want, ok := ref[o.idx]
			if !ok || o.err != nil {
				continue
			}
			if !slices.Equal(o.tokens, want) {
				return len(idx), fmt.Errorf("%w: run %d request %d: tokens %v, unbatched reference %v", errIncorrect, r, o.idx, o.tokens, want)
			}
		}
	}
	return len(idx), nil
}

// kvBalance checks a quiesced server's page accounting: pages allocated
// minus pages freed must equal the pages in use, and with no request live
// those are exactly the pages the prefix cache holds.
func kvBalance(s serve.Snapshot) error {
	held := s.KVPageAllocs - s.KVPageFrees
	if held != s.KVPagesInUse || held != s.PrefixSharedPages {
		return fmt.Errorf("%w: KV pages out of balance: allocs %d − frees %d = %d, in use %d, held by prefix cache %d",
			errIncorrect, s.KVPageAllocs, s.KVPageFrees, held, s.KVPagesInUse, s.PrefixSharedPages)
	}
	return nil
}

// quiescedSnapshot waits (up to a second) for a server whose requests have
// all been answered to settle its KV accounting, then checks the balance.
func quiescedSnapshot(srv *serve.Server) (serve.Snapshot, error) {
	var s serve.Snapshot
	for try := 0; try < 100; try++ {
		s = srv.Metrics().Snapshot()
		if kvBalance(s) == nil {
			return s, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return s, kvBalance(s)
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
