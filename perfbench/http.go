package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"tender/internal/router"
	"tender/internal/serve"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// tenant-http: the tenderserve binary routing over two replicas, driven
// over HTTP by two keep-alive connections.
const (
	httpCallers     = 4
	httpReplicas    = 2
	httpTenants     = 8
	httpPrefix      = 96 // shared system prompt, page-aligned
	httpTail        = 16 // unique per request
	httpNewTokens   = 16
	httpTemperature = 0.8
	httpThink       = 40 * time.Millisecond
	httpPool        = httpTenants * 250
)

var httpLimits = slo{ttftMs: 500, tpotMs: 50}

// tenantSeed fixes the tenants' system prompts. They are part of the
// deployment, like its replica count: the run seed draws the user
// messages, so every seed meets the same tenants on the same replicas.
const tenantSeed = 0x7e4a47

// tenantTrace is the request pool: each request goes to a tenant drawn
// from the seed and is that tenant's system prompt followed by a user
// message drawn from the seed. Drawing the tenant, rather than cycling
// through them, keeps the two connections from locking into a fixed
// pairing of tenants (and so of replicas) for a whole run.
func tenantTrace(seed uint64, vocab int) []workload.RequestSpec {
	prefixes := make([][]int, httpTenants)
	for g := range prefixes {
		prefixes[g] = workload.TokenStream(workload.Wiki, tenantSeed+uint64(g)*7907, httpPrefix, vocab)
	}
	rng := tensor.NewRNG(seed ^ 0x7e4a)
	pool := make([]workload.RequestSpec, httpPool)
	for i := range pool {
		g := rng.Intn(httpTenants)
		tail := workload.TokenStream(workload.PTB, seed*1000003+uint64(i), httpTail, vocab)
		pool[i] = workload.RequestSpec{
			Prompt:    append(append([]int(nil), prefixes[g]...), tail...),
			NewTokens: httpNewTokens,
			Group:     g,
		}
	}
	return pool
}

// child is a running tenderserve process.
type child struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild starts tenderserve and waits until /readyz answers 200,
// returning the time from process start to ready.
func startChild(root string) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	bin := filepath.Join(root, ".bench_build", "tenderserve")
	c := &child{url: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin,
		"-addr", addr, "-model", modelName, "-schemes", engineSpec, "-bits", strconv.Itoa(engineBits),
		"-router", "-replicas", strconv.Itoa(httpReplicas),
		"-kv-page-rows", strconv.Itoa(kvPageRows), "-kv-pages", strconv.Itoa(kvBudgetRows/kvPageRows),
		"-prefix-cache", "-prefix-cache-rows", strconv.Itoa(prefixCacheRows))
	c.cmd.Stderr = &c.stderr
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()
	probe := &http.Client{Timeout: 500 * time.Millisecond}
	for time.Since(t0) < 60*time.Second {
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("tenderserve exited before ready: %s", c.stderr.String())
		default:
		}
		if resp, err := probe.Get(c.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(t0), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.stop()
	return nil, 0, fmt.Errorf("tenderserve not ready after 60s")
}

// stop asks the child to drain and exit, kills it if it has not within
// ten seconds, and waits until it has ended.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

type generateResponse struct {
	Tokens    []int   `json:"tokens"`
	TTFTMs    float64 `json:"ttft_ms"`
	LatencyMs float64 `json:"latency_ms"`
}

func postGenerate(client *http.Client, url string, spec workload.RequestSpec, seed uint64) (generateResponse, error) {
	var out generateResponse
	body, err := json.Marshal(map[string]any{
		"prompt": spec.Prompt, "max_new_tokens": spec.NewTokens,
		"temperature": httpTemperature, "seed": seed,
	})
	if err != nil {
		return out, err
	}
	resp, err := client.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return out, json.Unmarshal(b, &out)
}

func fetchRouterSnapshot(client *http.Client, url string) (router.Snapshot, error) {
	var s router.Snapshot
	resp, err := client.Get(url + "/v1/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

func runTenantHTTP(rc *runCtx) (*report, error) {
	rep := newReport()
	spin0 := spinRate(250 * time.Millisecond)
	tp := time.Now()

	// Set-up: process start until /readyz answers, setupReps times; the
	// last server is the one measured.
	var setups []float64
	var c *child
	for k := 0; k < setupReps; k++ {
		if c != nil {
			c.stop()
		}
		var d time.Duration
		var err error
		if c, d, err = startChild(rc.root); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer c.stop()
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.3f s\n", setups)
	tp = logPhase("setup", tp)

	// The same engine, built in this process, for the reference decoder
	// and the quality figure.
	b, err := buildEngines()
	if err != nil {
		return nil, err
	}
	eng := b.engines[b.spec]
	ppl := pplRatio(b.m, eng)
	tp = logPhase("ppl", tp)
	pool := tenantTrace(rc.seed, b.m.Cfg.Vocab)
	seedBase := rc.seed << 20

	// The timeout only guards against a hung server: answers take well
	// under a second.
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: httpCallers, MaxConnsPerHost: httpCallers, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	pid := c.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(pid)
	t0 := time.Now()
	outs, w0, w1, err := drive(driveCfg{callers: httpCallers, seconds: rc.seconds, pool: len(pool), think: httpThink, seed: rc.seed}, func(i int) outcome {
		spec := pool[i]
		o := outcome{idx: i, promptLen: len(spec.Prompt), start: time.Now()}
		res, err := postGenerate(client, c.url, spec, seedBase+uint64(i))
		o.end = time.Now()
		o.err, o.tokens = err, res.Tokens
		o.ttftMs = httpTTFT(o.latencyMs(), res.LatencyMs, res.TTFTMs)
		o.edgeMs = o.latencyMs() - res.LatencyMs
		return o
	})
	wall := time.Since(t0)
	tp = logPhase("run", tp)
	memMB := rss.finish()
	cpu1, cpuErr := procCPU(pid)
	rep.attempted, rep.failed = len(outs), countFailed(outs)
	if err != nil {
		return rep, err
	}
	if cpuErr != nil {
		return rep, cpuErr
	}
	ws, err := summarize(outs, w0, w1, httpLimits, true)
	if err != nil {
		return rep, err
	}

	// Replica snapshots are cached for up to 100 ms inside the router;
	// wait them out, then check every replica's KV balance.
	var rs router.Snapshot
	for try := 0; ; try++ {
		time.Sleep(150 * time.Millisecond)
		if rs, err = fetchRouterSnapshot(client, c.url); err != nil {
			return rep, err
		}
		err = nil
		for _, r := range rs.Replicas {
			if r.Serve == nil {
				err = fmt.Errorf("replica %s reported no metrics", r.ID)
			} else if e := kvBalance(*r.Serve); e != nil {
				err = fmt.Errorf("replica %s: %w", r.ID, e)
			}
		}
		if err == nil || try == 5 {
			break
		}
	}
	if err != nil {
		return rep, err
	}
	c.stop()

	nv, err := verify(b.m, eng, pool, httpTemperature, seedBase, outs)
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
	rep.e2e.set("mem_peak_mb", memMB, "MB")
	ws.addE2E(rep.e2e)
	rep.e2e.set("ppl_ratio", ppl, "ratio")

	if rc.trace {
		// Nothing is wrapped here: the per-layer figures come from the
		// client's round trips and the servers' own /v1/metrics, so the
		// measured run is also the traced one.
		l := rep.layer
		var snaps []serve.Snapshot
		for _, r := range rs.Replicas {
			snaps = append(snaps, *r.Serve)
		}
		addServeLayers(l, snaps)
		l.set("model.self_s", 0, "s")
		addKernelLayers(l, nil, 0, wall)
		addEdgeLayers(l, ws, &rs)
		l.set("engine.build_s", b.bldDur.Seconds(), "s")
		l.set("model.new_s", b.newDur.Seconds(), "s")
		l.set("proc.cpu_cores", (cpu1-cpu0).Seconds()/wall.Seconds(), "cores")
		l.set("proc.alloc_bytes_per_tok", 0, "B/tok")
		l.set("proc.gc_cycles", 0, "count")
		l.set("eval.forward_ms_per_seq", evalForwardMs(b.m, eng), "ms")
		l.set("trace.overhead_frac", 0, "frac")
		l.set("host.spin_ratio", drift, "ratio")
	}
	return rep, nil
}
