package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"tender/internal/model"
	"tender/internal/serve"
	"tender/internal/workload"
)

// inprocWorkload is a workload driven by goroutines calling
// serve.Server.Generate directly.
type inprocWorkload struct {
	callers              int
	minPrompt, maxPrompt int
	newTokens            int
	pool                 int
	think                time.Duration
	limits               slo
}

var (
	// decodeBatch keeps a caller in every batch slot decoding: fused
	// batched decode at full batch dominates. Every request decodes 64
	// tokens, so without think time callers that once finish together
	// keep doing so.
	decodeBatch = inprocWorkload{
		callers: 8, minPrompt: 16, maxPrompt: 32, newTokens: 64, pool: 2000,
		think: 100 * time.Millisecond, limits: slo{ttftMs: 500, tpotMs: 50},
	}
	// prefillLong keeps a caller in every batch slot prefilling long
	// unique prompts: chunked prefill and long-context attention dominate,
	// and nearly every decode step shares its iteration with prefill
	// chunks. Prompt lengths vary enough to keep callers apart.
	prefillLong = inprocWorkload{
		callers: 8, minPrompt: 128, maxPrompt: 192, newTokens: 16, pool: 1000,
		limits: slo{ttftMs: 1000, tpotMs: 100},
	}
)

// inprocRun is one closed-loop run against a fresh server.
type inprocRun struct {
	outs     []outcome
	w0, w1   time.Time
	wall     time.Duration // whole run, warm-up and drain included
	snap     serve.Snapshot
	rssMB    float64
	cpu      time.Duration
	allocB   uint64
	gcCycles uint32
}

// runOnce drives srv through one closed-loop run and stops it.
func runOnce(srv *serve.Server, wl inprocWorkload, pool []workload.RequestSpec, seconds time.Duration, seedBase uint64) (*inprocRun, error) {
	defer srv.Stop()
	runtime.GC()
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	rss := sampleRSS(os.Getpid())
	t0 := time.Now()
	ctx := context.Background()
	outs, w0, w1, err := drive(driveCfg{callers: wl.callers, seconds: seconds, pool: len(pool), think: wl.think, seed: seedBase}, func(i int) outcome {
		spec := pool[i]
		o := outcome{idx: i, promptLen: len(spec.Prompt), start: time.Now()}
		res, err := srv.Generate(ctx, serve.Request{Prompt: spec.Prompt, MaxNewTokens: spec.NewTokens, Seed: seedBase + uint64(i)})
		o.end = time.Now()
		o.err, o.tokens = err, res.Tokens
		// The in-process round trip has no edge: the formula reduces to
		// the server's own time to first token plus the call overhead.
		o.ttftMs = httpTTFT(o.latencyMs(), float64(res.Latency)/1e6, float64(res.TTFT)/1e6)
		return o
	})
	r := &inprocRun{outs: outs, w0: w0, w1: w1, wall: time.Since(t0)}
	r.rssMB = rss.finish()
	r.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	r.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	if err != nil {
		return r, err
	}
	snap, err := quiescedSnapshot(srv)
	r.snap = snap
	return r, err
}

func runInProc(rc *runCtx, wl inprocWorkload) (*report, error) {
	rep := newReport()
	spin0 := spinRate(250 * time.Millisecond)
	tp := time.Now()

	// Set-up: model.New + BuildEngines + a started server, setupReps
	// times; the last server is the one measured.
	var setups, news, builds []float64
	var b *built
	var srv *serve.Server
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			srv.Stop()
		}
		t0 := time.Now()
		var err error
		if b, err = buildEngines(); err != nil {
			return nil, err
		}
		if srv, err = newServer(b.m, b.engines); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		news = append(news, b.newDur.Seconds())
		builds = append(builds, b.bldDur.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.3f s\n", setups)
	tp = logPhase("setup", tp)
	eng := b.engines[b.spec]
	ppl := pplRatio(b.m, eng)
	tp = logPhase("ppl", tp)

	pool := workload.RequestTrace(workload.TraceConfig{
		Requests: wl.pool, Vocab: b.m.Cfg.Vocab,
		MinPrompt: wl.minPrompt, MaxPrompt: wl.maxPrompt,
		MinNew: wl.newTokens, MaxNew: wl.newTokens,
	}, rc.seed)
	seedBase := rc.seed << 20

	run, err := runOnce(srv, wl, pool, rc.seconds, seedBase)
	tp = logPhase("run", tp)
	if run != nil {
		rep.attempted, rep.failed = len(run.outs), countFailed(run.outs)
	}
	if err != nil {
		return rep, err
	}
	ws, err := summarize(run.outs, run.w0, run.w1, wl.limits, false)
	if err != nil {
		return rep, err
	}

	var traced *inprocRun
	var ks *kernelStats
	if rc.trace {
		ks = newKernelStats(engineBits / 8)
		wrapped := make(map[string]model.Engine, len(b.engines))
		for k, e := range b.engines {
			wrapped[k] = wrapEngine(e, ks)
			if err := checkForwarding(e, wrapped[k]); err != nil {
				return rep, err
			}
		}
		tsrv, err := newServer(b.m, wrapped)
		if err != nil {
			return rep, err
		}
		if traced, err = runOnce(tsrv, wl, pool, rc.seconds, seedBase); err != nil {
			return rep, err
		}
		rep.attempted += len(traced.outs)
		rep.failed += countFailed(traced.outs)
		tp = logPhase("traced run", tp)
	}

	checked := []([]outcome){run.outs}
	if traced != nil {
		checked = append(checked, traced.outs)
	}
	nv, err := verify(b.m, eng, pool, 0, seedBase, checked...)
	if err != nil {
		return rep, err
	}
	logPhase("verify", tp)
	drift := hostDrift(spin0)
	fmt.Fprintf(os.Stderr, "perfbench: %d requests, %d failed; %d distinct requests bit-identical to the unbatched reference\n",
		rep.attempted, rep.failed, nv)
	if rep.failed > 0 {
		return rep, fmt.Errorf("%w: %d requests failed", errIncorrect, rep.failed)
	}

	rep.e2e.set("setup_s", median(setups), "s")
	rep.e2e.set("mem_peak_mb", run.rssMB, "MB")
	ws.addE2E(rep.e2e)
	rep.e2e.set("ppl_ratio", ppl, "ratio")

	if traced != nil {
		if err := sameAnswers(run, traced); err != nil {
			return rep, err
		}
		tws, err := summarize(traced.outs, traced.w0, traced.w1, wl.limits, false)
		if err != nil {
			return rep, err
		}
		l := rep.layer
		addServeLayers(l, []serve.Snapshot{traced.snap})
		busy, fusedBusy := ks.totals()
		l.set("model.self_s", traced.snap.FusedStep[b.spec].SumMs/1e3-fusedBusy.Seconds(), "s")
		addKernelLayers(l, ks, busy, traced.wall)
		addEdgeLayers(l, windowStats{}, nil)
		l.set("engine.build_s", median(builds), "s")
		l.set("model.new_s", median(news), "s")
		l.set("proc.cpu_cores", run.cpu.Seconds()/run.wall.Seconds(), "cores")
		l.set("proc.alloc_bytes_per_tok", frac(float64(run.allocB), float64(run.snap.DecodeTokens)), "B/tok")
		l.set("proc.gc_cycles", float64(run.gcCycles), "count")
		l.set("eval.forward_ms_per_seq", evalForwardMs(b.m, eng), "ms")
		l.set("trace.overhead_frac", 1-tws.decodeRate/ws.decodeRate, "frac")
		l.set("host.spin_ratio", drift, "ratio")
	}
	return rep, nil
}

func countFailed(outs []outcome) int {
	n := 0
	for i := range outs {
		if outs[i].err != nil {
			n++
		}
	}
	return n
}

// sameAnswers checks that the traced run is the same program as the
// untraced one: every request both runs answered has the same tokens, and
// the same share of decode tokens came from fused batched steps.
func sameAnswers(a, b *inprocRun) error {
	byIdx := make(map[int][]int, len(a.outs))
	for i := range a.outs {
		byIdx[a.outs[i].idx] = a.outs[i].tokens
	}
	for i := range b.outs {
		if want, ok := byIdx[b.outs[i].idx]; ok && !slices.Equal(want, b.outs[i].tokens) {
			return fmt.Errorf("%w: traced run answered request %d differently", errIncorrect, b.outs[i].idx)
		}
	}
	fa := frac(float64(a.snap.FusedDecodeTokens), float64(a.snap.DecodeTokens))
	fb := frac(float64(b.snap.FusedDecodeTokens), float64(b.snap.DecodeTokens))
	if fa != fb {
		return fmt.Errorf("%w: fused decode share %v untraced vs %v traced", errIncorrect, fa, fb)
	}
	return nil
}
