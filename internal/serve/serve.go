// Package serve is a continuous-batching inference server over the
// reproduction's quantized engines. Engines are built once — via
// internal/engine with the Serving option, which refuses every engine that
// fails the row-independence audit (model.Model.AuditRows) and prepares
// compile-once weight packs — and shared read-only across requests; New
// refuses a row-coupled engine with the same model.ErrRowCoupled. The
// server turns the offline evaluation substrate (internal/model) into a
// serving path: requests enter a bounded admission queue and an
// iteration-level scheduler assembles batches that mix prefill chunks and
// single-token decode steps.
//
// Each iteration is a list of work items stepped on a GOMAXPROCS worker
// pool by one function with one panic-isolation boundary, and every item
// is one model.Step: one forward pass over its requests' segments —
// prefill chunks, resumed tails and decode tokens stacked into one
// activation matrix, one Engine.MatMul per weight site over all the rows,
// attention per session against its own KV cache and position offset,
// only each segment's last row unembedded. An engine's decode-ready
// requests share one fused item — their current rows stacked into a single
// [B × d_model] matrix — and every prefill chunk is an item of its own.
// Every engine passed the audit, so every item computes exactly its
// requests' sequential model.Session results, and per-request outputs stay
// bit-identical to the unbatched single-threaded decode path for every
// engine served — batching, chunking and fusion change wall-clock, never
// tokens.
//
// KV memory is paged and budgeted, and the page pool is the one ledger:
// sessions draw fixed-size pages lazily from one shared tensor.BlockPool
// whose bound is Config.KVBudgetRows. Each time it decides, the scheduler
// works out every request's outstanding page need from the request's own
// state and compares the sum with the pool's free pages: admission
// secures the whole-prefill footprint, and before each step the batch's
// growth must fit, else the most recently admitted request is preempted
// (and later resumed, bit-identically). With Config.PrefixCache, completed
// prefills donate their prompt's KV pages to a per-engine prefix index
// (model.PrefixCache) — a donation takes no new pages — and later prompts
// sharing the prefix mount those refcounted pages instead of recomputing
// them, needing pages only for the unshared tail. Unreferenced cached
// prefixes are evicted LRU-first whenever live sessions need the memory.
// Prefix hits are bit-identical to cold prefill for every engine served.
//
// See docs/ARCHITECTURE.md for the full design, the page-table diagram
// and the metrics reference.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tender/internal/chaos"
	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/tensor"
)

// Errors surfaced through Result.Err / Generate.
var (
	// ErrQueueFull means the bounded admission queue rejected the request.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrKVBudget means the request's worst-case KV footprint exceeds the
	// server's total KV budget — it could never be scheduled.
	ErrKVBudget = errors.New("serve: request KV need exceeds budget")
	// ErrDeadlineExceeded means the request's deadline passed before it
	// finished; partial output is returned alongside it.
	ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")
	// ErrStopped means the server shut down before the request finished.
	ErrStopped = errors.New("serve: server stopped")
	// ErrDraining means the server is draining: in-flight requests run to
	// completion but new submissions are refused. Clients should retry on
	// another replica (HTTP surfaces map this to 503 + Retry-After).
	ErrDraining = errors.New("serve: server draining")
	// ErrUnknownScheme means the request named an engine the server does
	// not host.
	ErrUnknownScheme = errors.New("serve: unknown scheme")
	// ErrInvalidRequest means the request failed submission validation —
	// empty or oversize prompt, out-of-vocab token — and was refused
	// before touching the scheduler. HTTP surfaces map it to 400.
	ErrInvalidRequest = errors.New("serve: invalid request")
	// ErrOverloaded means admission shed the request under brownout:
	// recent queue wait or KV occupancy crossed the configured threshold.
	// Retriable on another replica; HTTP surfaces map it to 503 +
	// Retry-After.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrInternal means a scheduler step panicked while running this
	// request. The panic is isolated to its work item: only that item's
	// requests fail (one request, or every member of a fused pass), their
	// KV pages and prefix pins are released, and the rest of the batch
	// keeps running.
	ErrInternal = errors.New("serve: internal error")
)

// Request is one generation job.
type Request struct {
	// Prompt is the token sequence to prefill.
	Prompt []int
	// MaxNewTokens bounds decoding; it is clamped to the model's MaxSeq.
	MaxNewTokens int
	// Scheme selects the hosted engine ("" = server default).
	Scheme string
	// Temperature > 0 samples from softmax(logits/T) with the request's
	// deterministic RNG; <= 0 decodes greedily.
	Temperature float64
	// Seed drives the request's sampling RNG (only used when sampling).
	Seed uint64
	// Deadline, if nonzero, expires the request at that wall-clock time.
	Deadline time.Time
}

// Result is the outcome of one request.
type Result struct {
	ID            uint64        `json:"id"`
	Scheme        string        `json:"scheme"`
	Tokens        []int         `json:"tokens"`
	Err           error         `json:"-"`
	TTFT          time.Duration `json:"ttft_ns"`    // enqueue → first token
	Latency       time.Duration `json:"latency_ns"` // enqueue → done
	PrefillTokens int           `json:"prefill_tokens"`
}

// Config configures a Server.
type Config struct {
	// Model is the decoder all engines share.
	Model *model.Model
	// Engines maps engine spec → calibrated engine (the map
	// engine.BuildEngines returns). All requests for a scheme share the
	// engine; engines are read-only at inference time. Every engine must
	// pass the row-independence audit (model.Model.AuditRows).
	Engines map[string]model.Engine
	// DefaultScheme is used when a request names none. Defaults to the
	// sole engine when exactly one is hosted.
	DefaultScheme string
	// MaxBatch bounds how many requests are active per iteration
	// (default 8).
	MaxBatch int
	// QueueDepth bounds the admission queue (default 4×MaxBatch).
	QueueDepth int
	// PrefillChunk bounds prompt tokens consumed per iteration per
	// request, so long prompts cannot starve decode steps (default 32).
	PrefillChunk int
	// KVBudgetRows caps the total KV positions held in the shared page
	// pool — by active sessions and cached prefixes alike (0 = unlimited).
	// One position is one row of keys and one of values in every layer;
	// the pool's page bound is this budget, and it is the only KV ledger.
	// The scheduler admits a new request only while the pool's free pages
	// cover its prefill on top of what the batch is still owed, secures
	// each iteration's growth the same way, and preempts the most recently
	// admitted request when the pool runs dry (its pages are freed and it
	// is requeued, to be resumed later by re-prefilling its retained
	// prompt + generated tokens — output tokens are unchanged by
	// preemption). Rounded up to a multiple of KVPageRows.
	KVBudgetRows int
	// KVPageRows is the page granularity of the shared KV block pool
	// (default tensor.DefaultPageRows). Sessions acquire pages lazily as
	// they grow instead of preallocating worst-case MaxSeq buffers.
	KVPageRows int
	// PrefixCache enables shared-prefix KV reuse over the paged pool: each
	// completed prefill donates its prompt's KV pages to a per-engine
	// prefix index (model.PrefixCache) without taking new pages, and later
	// prompts sharing the prefix mount those refcounted pages instead of
	// recomputing them — admission needs pages only for the unshared tail,
	// and unreferenced cached prefixes are evicted LRU-first under pool
	// pressure before the scheduler holds or preempts anything. Hits are
	// bit-identical to cold prefill for every engine served.
	PrefixCache bool
	// PrefixCacheRows caps the KV positions retained by cached prefixes
	// (rounded up to KVPageRows). 0 defaults to KVBudgetRows when a budget
	// is set, and to unbounded otherwise.
	PrefixCacheRows int
	// Tracer, when non-nil, records every request-lifecycle state
	// transition (enqueue, admit, prefill, per-iteration decode, preempt,
	// resume, terminal) plus one event per scheduler iteration into a
	// bounded ring, exportable as JSONL or Chrome trace_event JSON. A nil
	// tracer costs one nil check per event — the decode hot path stays
	// allocation-free either way.
	Tracer *obs.Tracer
	// BrownoutQueueWait, when > 0, sheds new submissions with
	// ErrOverloaded while the queue is non-empty and the most recent
	// admission waited longer than this — graceful degradation before
	// the bounded queue hard-rejects. 0 disables queue-wait brownout.
	BrownoutQueueWait time.Duration
	// BrownoutKVFrac, when in (0,1], sheds new submissions with
	// ErrOverloaded while live sessions hold at least this fraction of
	// KVBudgetRows, counted as each session's page-rounded length (pages
	// only the prefix cache holds do not count — they yield to live
	// requests). 0 disables KV brownout; requires a KV budget.
	BrownoutKVFrac float64
	// Chaos, when non-nil, injects seeded faults into the scheduler —
	// KV-pool exhaustion at admission, step panics — for resilience
	// testing. Nil (the default) compiles down to one pointer test per
	// hook; the decode hot path stays allocation-free either way.
	Chaos *chaos.Injector
}

func (c *Config) fill() error {
	if c.Model == nil {
		return errors.New("serve: Config.Model is nil")
	}
	if len(c.Engines) == 0 {
		return errors.New("serve: Config.Engines is empty")
	}
	if c.DefaultScheme == "" {
		if len(c.Engines) == 1 {
			for name := range c.Engines {
				c.DefaultScheme = name
			}
		} else {
			return errors.New("serve: DefaultScheme required with multiple engines")
		}
	}
	if _, ok := c.Engines[c.DefaultScheme]; !ok {
		return fmt.Errorf("serve: default scheme %q not hosted", c.DefaultScheme)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.PrefillChunk <= 0 {
		c.PrefillChunk = 32
	}
	if c.KVPageRows <= 0 {
		c.KVPageRows = tensor.DefaultPageRows
	}
	if c.KVBudgetRows < 0 {
		c.KVBudgetRows = 0
	}
	if c.KVBudgetRows > 0 {
		// Page-align the budget so position accounting and the page pool
		// agree exactly.
		c.KVBudgetRows = pageRoundUp(c.KVBudgetRows, c.KVPageRows)
	}
	if c.BrownoutQueueWait < 0 {
		return fmt.Errorf("serve: negative BrownoutQueueWait %v", c.BrownoutQueueWait)
	}
	if c.BrownoutKVFrac < 0 || c.BrownoutKVFrac > 1 {
		return fmt.Errorf("serve: BrownoutKVFrac %v outside [0,1]", c.BrownoutKVFrac)
	}
	if c.BrownoutKVFrac > 0 && c.KVBudgetRows == 0 {
		return errors.New("serve: BrownoutKVFrac requires KVBudgetRows")
	}
	if c.PrefixCache {
		if c.PrefixCacheRows < 0 {
			c.PrefixCacheRows = 0
		}
		if c.PrefixCacheRows == 0 {
			c.PrefixCacheRows = c.KVBudgetRows // 0 without a budget: unbounded
		}
		if c.PrefixCacheRows > 0 {
			c.PrefixCacheRows = pageRoundUp(c.PrefixCacheRows, c.KVPageRows)
		}
	}
	return nil
}

// Server runs the continuous-batching scheduler.
type Server struct {
	cfg      Config
	queue    chan *pending
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	metrics  *Metrics
	tracer   *obs.Tracer
	nextID   uint64
	idMu     sync.Mutex
	// kvPool is the shared page pool every session draws from.
	kvPool *tensor.BlockPool
	// workers bounds the goroutines stepping an iteration's work items.
	workers int
	// waitCount mirrors len(waiting) for the queue-depth gauge, which is
	// read outside the scheduler goroutine.
	waitCount atomic.Int64
	// draining flips once when drain begins: Generate then fails fast with
	// ErrDraining while requests already submitted run to completion.
	draining atomic.Bool
	// Brownout gauges, written by the scheduler goroutine and read by
	// Generate: the queue wait of the most recent admission, and the KV
	// rows live sessions currently hold, page-rounded per session.
	recentQueueWait atomic.Int64
	liveKVRows      atomic.Int64
	// inflight counts requests Generate has accepted and not yet returned
	// to their callers — what a bounded drain waits on.
	inflight atomic.Int64
	// now is the clock every scheduler decision, request timestamp and
	// metrics window reads (time.Now outside tests).
	now func() time.Time
	// Scheduler-goroutine state: the active batch in admission order, and
	// the wait list — preempted requests in preemption order, then at most
	// one request that left the queue but has not been admitted yet (held
	// at the head of the line for KV).
	batch   []*activeReq
	waiting []*activeReq
	// iter numbers scheduler iterations for trace events; only the
	// scheduler goroutine touches it (client-side events carry iter 0).
	iter int64
	// reclaims counts reclaimKV's prefix evictions and idleReclaims those
	// that freed no pool page (scheduler goroutine; tests read them).
	reclaims, idleReclaims int
	// prefixCaches maps engine spec → prefix index (nil map when the
	// prefix cache is off). prefixOrder is the
	// sorted spec list — reclaim walks it instead of the map so eviction
	// order (and therefore every downstream scheduling decision) is
	// deterministic. Only the scheduler goroutine mutates the caches;
	// Metrics reads their Stats.
	prefixCaches map[string]*model.PrefixCache
	prefixOrder  []string
}

// pending is a queued request.
type pending struct {
	id   uint64
	req  Request
	ctx  context.Context
	enq  time.Time
	done chan Result
}

// activeReq is a request that has left the queue: in the iteration batch,
// or on the wait list before its first admission or after a preemption.
type activeReq struct {
	p      *pending
	sess   *model.Session
	eng    model.Engine
	rng    *tensor.RNG
	scheme string
	// seq is the token sequence the session must contain before decoding:
	// the prompt, or — after a preemption — the prompt plus every
	// generated token except the last emitted one (which the next decode
	// step appends as usual). consumed counts how much of seq has been
	// prefilled.
	seq      []int
	consumed int
	// stepRows is the rows the current iteration's step appends: a
	// prefill chunk, or 1 for a decode step.
	stepRows int
	// prefilled counts the prompt tokens prefilled, capped at the prompt
	// length so resume re-prefills do not inflate it — this is what
	// Result.PrefillTokens reports.
	prefilled int
	// emitPrefill is true while the final prefill logits should emit a
	// token (a first prefill); a resume re-prefill re-derives tokens the
	// request already emitted, so it stays silent.
	emitPrefill bool
	// entry is the pinned prefix-cache entry the session mounted (nil on a
	// miss or with the cache off).
	entry  *model.PrefixEntry
	maxNew int
	// out is allocated at the first admission; started (zero until then)
	// marks it.
	out      []int
	started  time.Time
	firstTok time.Time
	// Stage-timing state, all maintained from transition timestamps on the
	// scheduler goroutine: heldAt/heldFor are the admission hold that
	// preceded the first admission, preemptedAt/preemptedFor track time
	// spent evicted, and prefillStartTraced gates the one prefill-start
	// trace event per mount.
	heldAt             time.Time
	heldFor            time.Duration
	preemptedAt        time.Time
	preemptedFor       time.Duration
	prefillStartTraced bool
	// Per-iteration accounting, read by the scheduler after the worker
	// pool joins: the rows the step prefilled and whether it emitted a
	// token.
	lastStepPrefill int
	lastStepDecoded bool
	// failed records a recovered step panic (wrapped in ErrInternal); the
	// scheduler retires the request with it after the worker pool joins.
	failed error
}

// New builds a Server; call Start to run it.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		stop:    make(chan struct{}),
		tracer:  cfg.Tracer,
		now:     time.Now,
		workers: runtime.GOMAXPROCS(0),
	}
	// The pool is the one KV ledger: its bound is the page-aligned budget,
	// one K and one V page per layer per page of positions (unbounded
	// without a budget).
	maxPages := cfg.KVBudgetRows / cfg.KVPageRows * s.posPages()
	s.kvPool = tensor.NewBlockPool(cfg.Model.Cfg.DModel, cfg.KVPageRows, maxPages)
	specs := slices.Sorted(maps.Keys(cfg.Engines))
	for _, spec := range specs {
		if err := cfg.Model.AuditRows(spec, cfg.Engines[spec]); err != nil {
			return nil, err
		}
	}
	if cfg.PrefixCache {
		s.prefixCaches = make(map[string]*model.PrefixCache, len(specs))
		for _, spec := range specs {
			s.prefixCaches[spec] = model.NewPrefixCache(s.kvPool, cfg.Model.Cfg.Layers, cfg.PrefixCacheRows)
		}
		s.prefixOrder = specs
	}
	s.queue = make(chan *pending, cfg.QueueDepth)
	pages := func() (int64, int64, int64) {
		allocs, frees := s.kvPool.Counters()
		return int64(s.kvPool.InUse()), allocs, frees
	}
	var prefixStats func() (rows, pages, entries, evictions int64)
	if s.prefixCaches != nil {
		prefixStats = func() (rows, pages, entries, evictions int64) {
			for _, c := range s.prefixCaches {
				st := c.Stats()
				rows += int64(st.HeldRows)
				pages += int64(st.HeldPages)
				entries += int64(st.Entries)
				evictions += st.Evictions
			}
			return rows, pages, entries, evictions
		}
	}
	s.metrics = newMetrics(cfg.DefaultScheme, cfg.KVBudgetRows, cfg.KVPageRows,
		func() int { return len(s.queue) + int(s.waitCount.Load()) }, pages, prefixStats)
	s.metrics.now = func() time.Time { return s.now() }
	return s, nil
}

// Metrics returns the server's live metrics.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer returns the server's lifecycle tracer (nil when tracing is off).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// WritePrometheus renders the server's metrics — and, with tracing on,
// the tracer's retention counters — in Prometheus text exposition format.
func (s *Server) WritePrometheus(w io.Writer) error {
	snap := s.metrics.Snapshot()
	p := obs.NewPromWriter(w)
	writeSnapshotProm(p, snap)
	if s.tracer != nil {
		p.Counter("tender_trace_events_total", "Lifecycle events ever recorded.", float64(len(s.tracer.Events()))+float64(s.tracer.Dropped()))
		p.Counter("tender_trace_events_dropped_total", "Lifecycle events overwritten by ring wrap-around.", float64(s.tracer.Dropped()))
	}
	return p.Flush()
}

// Start launches the scheduler loop.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.loop()
}

// Stop shuts the scheduler down. In-flight and queued requests fail with
// ErrStopped. Stop blocks until the loop exits; repeated calls are
// no-ops, so drain-then-stop paths compose with deferred stops.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// BeginDrain flips the server into draining mode: requests already
// accepted run to completion, new Generate calls fail fast with
// ErrDraining. Irreversible for the life of the server — a drained
// replica is taken out of rotation, not put back.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether the server is refusing new submissions.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stopped reports whether Stop has been called: a stopped server fails
// every submission with ErrStopped and can never serve again, so health
// probes must read it as down.
func (s *Server) Stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// InFlight returns how many accepted requests have not yet been delivered
// back to their callers.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// Drain is the bounded graceful-shutdown path: it begins draining and
// blocks until every in-flight request has been delivered or ctx expires.
// It does not stop the scheduler — callers Stop after a clean drain (or
// immediately after an expired one, failing the stragglers with
// ErrStopped). The router's drain state machine and tenderserve's signal
// handler both sit on this.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// brownout decides whether admission should shed a new submission under
// overload: the queue has backlog and its most recent admission waited
// past BrownoutQueueWait, or live sessions hold BrownoutKVFrac of the KV
// budget. Shedding with a retriable 503 before the queue hard-rejects
// gives callers (and the router) an early signal to go elsewhere.
func (s *Server) brownout() error {
	if w := s.cfg.BrownoutQueueWait; w > 0 && len(s.queue) > 0 &&
		time.Duration(s.recentQueueWait.Load()) > w {
		return fmt.Errorf("%w: recent queue wait %v over %v",
			ErrOverloaded, time.Duration(s.recentQueueWait.Load()), w)
	}
	if f := s.cfg.BrownoutKVFrac; f > 0 {
		if live := s.liveKVRows.Load(); float64(live) >= f*float64(s.cfg.KVBudgetRows) {
			return fmt.Errorf("%w: live KV %d rows at %.0f%% of budget %d",
				ErrOverloaded, live, 100*f, s.cfg.KVBudgetRows)
		}
	}
	return nil
}

// ValidateRequest checks the server-independent shape of a request
// against the model limits: non-empty prompt, length under the context
// window, every token within the vocabulary. Serving fronts call it at
// the HTTP boundary so a malformed request is a 400 even when no
// replica is reachable; Server.Generate applies the same checks (plus
// scheme resolution and KV-budget feasibility) at submission.
func ValidateRequest(cfg model.Config, req Request) error {
	if len(req.Prompt) == 0 {
		return fmt.Errorf("%w: empty prompt", ErrInvalidRequest)
	}
	if len(req.Prompt) >= cfg.MaxSeq {
		return fmt.Errorf("%w: prompt length %d exceeds context %d",
			ErrInvalidRequest, len(req.Prompt), cfg.MaxSeq)
	}
	for i, t := range req.Prompt {
		if t < 0 || t >= cfg.Vocab {
			return fmt.Errorf("%w: prompt token %d at position %d outside vocab [0,%d)",
				ErrInvalidRequest, t, i, cfg.Vocab)
		}
	}
	return nil
}

// Generate submits a request and blocks until it completes, the context is
// cancelled, or the server rejects/stops it. Rejection (full queue) is
// immediate, never blocking — the bounded-queue contract.
func (s *Server) Generate(ctx context.Context, req Request) (Result, error) {
	// Counted before the draining check so a drain that begins between the
	// two always waits for this request or sees it refused — never loses it.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	p, err := s.submit(ctx, req)
	switch {
	case p == nil:
		return Result{}, err
	case err != nil:
		return Result{ID: p.id, Err: err}, err
	}
	select {
	case r := <-p.done:
		return r, r.Err
	case <-ctx.Done():
		// The scheduler notices the cancelled context at its next
		// iteration and discards the request; the buffered done channel
		// never blocks it.
		return Result{ID: p.id, Err: ctx.Err()}, ctx.Err()
	case <-s.stop:
		// A request can win the race into the queue after the scheduler's
		// final drain; without this arm it would wait forever. Let the
		// loop finish delivering every outcome it did see, then prefer
		// its verdict over a synthesized one.
		s.wg.Wait()
		select {
		case r := <-p.done:
			return r, r.Err
		default:
			return Result{ID: p.id, Err: ErrStopped}, ErrStopped
		}
	}
}

// submit validates req and enqueues it, returning the queued request whose
// done channel receives its Result. A request refused before it got an id
// comes back nil; one refused because the server stopped comes back with
// its id and ErrStopped.
func (s *Server) submit(ctx context.Context, req Request) (*pending, error) {
	if req.Scheme == "" {
		req.Scheme = s.cfg.DefaultScheme
	}
	if _, ok := s.cfg.Engines[req.Scheme]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, req.Scheme)
	}
	// Validation precedes admission: a malformed prompt is refused with a
	// typed client error here instead of panicking model.Step on a
	// scheduler goroutine later.
	if err := ValidateRequest(s.cfg.Model.Cfg, req); err != nil {
		s.metrics.invalidReject()
		return nil, err
	}
	if s.cfg.KVBudgetRows > 0 {
		// A request whose worst-case footprint exceeds the whole budget
		// can never be scheduled; fail fast instead of queueing it. Peak
		// occupancy is prompt + maxNew−1 positions (the last emitted
		// token is never appended), and admission reserves at least
		// prompt+1 — the larger of the two page-rounds is the request's
		// true worst-case reservation.
		maxNew := s.cfg.clampMaxNew(len(req.Prompt), req.MaxNewTokens)
		peak := len(req.Prompt) + maxNew - 1
		if minPeak := len(req.Prompt) + 1; peak < minPeak {
			peak = minPeak
		}
		if s.pageRound(peak) > s.cfg.KVBudgetRows {
			return nil, fmt.Errorf("%w: %d rows needed, budget %d",
				ErrKVBudget, s.pageRound(peak), s.cfg.KVBudgetRows)
		}
	}
	if s.draining.Load() {
		s.metrics.drainReject()
		s.tracer.Record(obs.KindReject, 0, 0, obs.ReasonDraining, 0)
		return nil, ErrDraining
	}
	if err := s.brownout(); err != nil {
		s.metrics.brownoutReject()
		s.tracer.Record(obs.KindReject, 0, 0, obs.ReasonOverload, 0)
		return nil, err
	}
	s.idMu.Lock()
	s.nextID++
	id := s.nextID
	s.idMu.Unlock()
	p := &pending{id: id, req: req, ctx: ctx, enq: s.now(), done: make(chan Result, 1)}
	select {
	case <-s.stop:
		return p, ErrStopped
	default:
	}
	// Recorded before the send so the scheduler can never log this
	// request's admission ahead of its enqueue.
	s.tracer.Record(obs.KindEnqueue, id, 0, int64(len(req.Prompt)), int64(req.MaxNewTokens))
	select {
	case s.queue <- p:
		return p, nil
	default:
		s.metrics.reject()
		s.tracer.Record(obs.KindReject, id, 0, obs.ReasonQueueFull, 0)
		return nil, ErrQueueFull
	}
}
