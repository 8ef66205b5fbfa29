package router

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tender/internal/serve"
	"tender/internal/tensor"
)

// Policy selects how the router maps a prompt to a replica.
type Policy int

const (
	// PolicyAffinity (the default) hashes the prompt's page-aligned prefix
	// chunks, so same-prefix prompts land on the replica whose PrefixCache
	// already holds their KV pages.
	PolicyAffinity Policy = iota
	// PolicyScatter hashes the whole prompt, unique tail included —
	// same-prefix prompts scatter across replicas, splitting every shared
	// prefix's cache N ways. The degraded baseline affinity is measured
	// against ("router-random" in BENCH rows).
	PolicyScatter
)

func (p Policy) String() string {
	switch p {
	case PolicyAffinity:
		return "affinity"
	case PolicyScatter:
		return "scatter"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Errors returned by the router itself (replica errors pass through).
var (
	// ErrNoReplicas means no healthy replica is in rotation (all down or
	// draining, or every candidate was tried and failed).
	ErrNoReplicas = errors.New("router: no healthy replicas")
	// ErrAttemptTimeout means one submission attempt exceeded
	// Config.AttemptTimeout while the caller's own context was still
	// live: the replica stalled. Retriable — the request is resubmitted
	// elsewhere — and it feeds the circuit breaker, but unlike
	// ErrReplicaUnreachable it does not mark the replica Down on first
	// contact: one slow response is not proof the process is gone (the
	// prober decides that).
	ErrAttemptTimeout = errors.New("router: attempt timed out")
)

// Replica names one backend for Config.
type Replica struct {
	ID      string
	Backend Backend
}

// The router's hashing constants, exported so callers can reproduce it
// (e.g. to predict a key's owner).
const (
	// DefaultVNodes is the consistent-hash virtual-node count per replica.
	DefaultVNodes = 64
	// DefaultAffinityChunks caps how many leading page-aligned chunks the
	// affinity key hashes: enough to separate tenants' system prompts, few
	// enough that deep common prefixes still collapse to one key.
	DefaultAffinityChunks = 4
)

// snapshotMaxAge bounds how stale a replica's cached metrics snapshot may
// be when used for load scoring before it is refreshed inline (the health
// prober also refreshes it every period).
const snapshotMaxAge = 100 * time.Millisecond

// Config configures a Router.

type Config struct {
	// Replicas are the initial members; ids must be unique and non-empty.
	Replicas []Replica
	// Policy is the routing policy (default PolicyAffinity).
	Policy Policy
	// PageRows is the page granularity the affinity key aligns prefix
	// chunks to; it should match the replicas' KVPageRows (default
	// tensor.DefaultPageRows).
	PageRows int
	// SpillMargin, when > 0, lets affinity routing spill to the
	// least-loaded replica when the owner's load score exceeds the
	// minimum by more than this margin — residual load balancing for hot
	// shards. 0 disables spilling (strict affinity).
	SpillMargin int
	// ProbePeriod is the background health-check interval; 0 disables the
	// prober (state then changes only through Generate failures and
	// explicit Drain/Restore calls).
	ProbePeriod time.Duration
	// ProbeFailures is how many consecutive probe failures mark a replica
	// Down (default 2).
	ProbeFailures int
	// AttemptTimeout, when > 0, bounds each submission attempt: a replica
	// that stalls past it fails the attempt with ErrAttemptTimeout and
	// the request is retried elsewhere. 0 leaves attempts bounded only by
	// the caller's context.
	AttemptTimeout time.Duration
	// MaxAttempts, when > 0, bounds total submission attempts per request
	// and unlocks re-tries: once every Up candidate has been tried, the
	// tried set resets after backoff so transient faults (a stall, an
	// open breaker) can be retried on the same replicas. 0 keeps the
	// strict legacy behaviour — each Up replica is tried at most once.
	MaxAttempts int
	// RetryBackoff is the base delay before retry attempt n: the delay
	// doubles each attempt, is capped at RetryBackoffMax, and is scaled
	// by a deterministic jitter in [0.5,1) derived from (JitterSeed,
	// routing key, attempt) — reproducible, yet spread so synchronized
	// retries cannot stampede a recovering replica. 0 retries
	// immediately.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff (default
	// 32×RetryBackoff).
	RetryBackoffMax time.Duration
	// JitterSeed seeds the deterministic retry jitter.
	JitterSeed uint64
	// BreakerThreshold, when > 0, arms a per-replica circuit breaker: the
	// breaker opens after this many consecutive retriable failures, the
	// replica is skipped by routing (losing its ring keyspace to the
	// survivors) for BreakerCooldown, then half-opens — the next request
	// through is the probe; success closes the breaker and the replica
	// re-enters the ring with its keyspace, failure re-opens it for
	// another cooldown. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// half-opening (default 250ms).
	BreakerCooldown time.Duration
}

// State is a replica's position in the health/drain state machine.
type State int32

const (
	// StateUp: in the ring, accepting traffic.
	StateUp State = iota
	// StateDraining: out of the ring, finishing in-flight work.
	StateDraining
	// StateDown: out of the ring, unreachable or drained out.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// replica is the router's per-backend record: the backend handle, the
// health state, the router-side in-flight count, the cached metrics
// snapshot for load scoring, and the routing counters.
type replica struct {
	id string

	// be and state are guarded by Router.mu; inflight and the counters
	// are atomics read lock-free.
	be    Backend
	state State

	inflight atomic.Int64

	// Cached metrics snapshot for load scoring (guarded by snapMu).
	snapMu sync.Mutex
	snap   serve.Snapshot
	snapOK bool
	snapAt time.Time

	// probeFails counts consecutive failed probes (incremented by the
	// prober, reset by Restore).
	probeFails atomic.Int32

	// Circuit breaker (guarded by brkMu; disabled unless
	// Config.BreakerThreshold > 0): consecutive retriable failures and,
	// once tripped, the instant the breaker half-opens. brkTrips counts
	// open transitions for metrics.
	brkMu        sync.Mutex
	brkFails     int
	brkOpenUntil time.Time
	brkTrips     atomic.Int64

	// Routing counters, by decision reason.
	routedAffinity atomic.Int64
	routedSpill    atomic.Int64
	routedScatter  atomic.Int64
	routedFailover atomic.Int64
	completed      atomic.Int64
	errored        atomic.Int64
}

// Router fronts N replicas: it routes requests by policy over a
// consistent-hash ring of healthy replicas, spills residual load, fails
// over on retriable errors, and runs the health/drain state machine.
// Router implements serve.Generator, so serve.RunLoad and the
// determinism gates drive it exactly like a single server.
type Router struct {
	cfg Config

	// mu guards membership: replica state transitions, backend swaps and
	// ring rebuilds. The routing fast path takes it briefly to read the
	// ring pointer and candidate set.
	mu       sync.Mutex
	ring     *Ring
	replicas []*replica
	byID     map[string]*replica

	requests  atomic.Int64
	failovers atomic.Int64
	rejected  atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Router over the configured replicas (all initially Up).
// Call Start to run the background health prober (optional), Stop to
// halt it. The router never stops its backends; their lifecycle belongs
// to the caller.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	if cfg.PageRows <= 0 {
		cfg.PageRows = tensor.DefaultPageRows
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 2
	}
	if cfg.MaxAttempts < 0 {
		cfg.MaxAttempts = 0
	}
	if cfg.RetryBackoff > 0 && cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 32 * cfg.RetryBackoff
	}
	if cfg.BreakerThreshold > 0 && cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 250 * time.Millisecond
	}
	r := &Router{
		cfg:  cfg,
		byID: make(map[string]*replica, len(cfg.Replicas)),
		stop: make(chan struct{}),
	}
	for _, rc := range cfg.Replicas {
		if rc.ID == "" {
			return nil, errors.New("router: replica with empty id")
		}
		if rc.Backend == nil {
			return nil, fmt.Errorf("router: replica %q has no backend", rc.ID)
		}
		if _, dup := r.byID[rc.ID]; dup {
			return nil, fmt.Errorf("router: duplicate replica id %q", rc.ID)
		}
		rep := &replica{id: rc.ID, be: rc.Backend, state: StateUp}
		r.replicas = append(r.replicas, rep)
		r.byID[rc.ID] = rep
	}
	r.rebuildRingLocked()
	return r, nil
}

// rebuildRingLocked rebuilds the hash ring from the Up members. Caller
// holds r.mu.
func (r *Router) rebuildRingLocked() {
	var up []string
	for _, rep := range r.replicas {
		if rep.state == StateUp {
			up = append(up, rep.id)
		}
	}
	sort.Strings(up)
	r.ring = NewRing(up, DefaultVNodes)
}

// Start launches the background health prober when ProbePeriod is set.
func (r *Router) Start() {
	if r.cfg.ProbePeriod <= 0 {
		return
	}
	r.wg.Add(1)
	go r.probeLoop()
}

// Stop halts the prober. Backends are left running.
func (r *Router) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Ready reports whether at least one replica is Up — what a fronting
// /readyz should serve.
func (r *Router) Ready() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rep := range r.replicas {
		if rep.state == StateUp {
			return true
		}
	}
	return false
}

// States returns each replica's current health state.
func (r *Router) States() map[string]State {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]State, len(r.replicas))
	for _, rep := range r.replicas {
		out[rep.id] = rep.state
	}
	return out
}

// retriable reports whether a failed submission may succeed on another
// replica: the replica refused it (draining, stopped, queue full,
// brownout), never durably received it (connection failure), or stalled
// past the attempt timeout. Semantic errors — invalid request, unknown
// scheme, KV footprint over budget, deadline expiry, caller
// cancellation — fail the same way everywhere and are returned as is.
func retriable(err error) bool {
	return errors.Is(err, serve.ErrDraining) ||
		errors.Is(err, serve.ErrStopped) ||
		errors.Is(err, serve.ErrQueueFull) ||
		errors.Is(err, serve.ErrOverloaded) ||
		errors.Is(err, ErrReplicaUnreachable) ||
		errors.Is(err, ErrAttemptTimeout)
}

// hardFailure reports whether the error proves the replica itself is
// gone (not merely busy): the router marks it Down immediately instead
// of waiting for the prober.
func hardFailure(err error) bool {
	return errors.Is(err, serve.ErrStopped) || errors.Is(err, ErrReplicaUnreachable)
}

// Generate routes one request: pick a replica by policy, submit (bounded
// by the per-attempt timeout), and on a retriable failure back off and
// fail over to the next-best candidate until one succeeds, MaxAttempts
// is exhausted, or every healthy replica has been tried. Per-request
// outputs are deterministic on every replica (greedy decode, or sampling
// seeded by the request), so which replica serves a request — and any
// mid-run failover or retry — never changes its tokens.
func (r *Router) Generate(ctx context.Context, req serve.Request) (serve.Result, error) {
	r.requests.Add(1)
	var key uint64
	switch r.cfg.Policy {
	case PolicyScatter:
		key = ScatterKey(req.Prompt)
	default:
		key = AffinityKey(req.Prompt, r.cfg.PageRows, DefaultAffinityChunks)
	}
	tried := make(map[string]bool)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return serve.Result{}, err
		}
		rep, reason := r.pick(key, tried, len(tried) > 0)
		if rep == nil {
			// No untried candidate. With retry budget left and any chance
			// of one appearing — a replica still Up (stalled or breaker-open
			// just now), or a prober that can restore a Down one — reset the
			// tried set and go around after backoff. Without MaxAttempts this
			// keeps the strict one-try-per-replica contract.
			if r.cfg.MaxAttempts > 0 && attempt <= r.cfg.MaxAttempts &&
				(r.Ready() || r.cfg.ProbePeriod > 0) {
				clear(tried)
				if err := r.backoff(ctx, key, attempt); err != nil {
					return serve.Result{}, err
				}
				continue
			}
			r.rejected.Add(1)
			if lastErr != nil {
				return serve.Result{}, fmt.Errorf("%w (last: %v)", ErrNoReplicas, lastErr)
			}
			return serve.Result{}, ErrNoReplicas
		}
		rep.countRouted(reason)
		res, err := r.submit(ctx, rep, req)
		if err == nil {
			if r.cfg.BreakerThreshold > 0 {
				rep.breakerSuccess()
			}
			rep.completed.Add(1)
			return res, nil
		}
		if !retriable(err) {
			rep.errored.Add(1)
			return res, err
		}
		// Retriable: this replica is out (for this request at least).
		tried[rep.id] = true
		lastErr = err
		r.failovers.Add(1)
		rep.breakerFailure(time.Now(), r.cfg.BreakerThreshold, r.cfg.BreakerCooldown)
		if hardFailure(err) {
			r.markDown(rep.id)
		}
		if r.cfg.MaxAttempts > 0 && attempt >= r.cfg.MaxAttempts {
			r.rejected.Add(1)
			return serve.Result{}, fmt.Errorf("%w after %d attempts (last: %v)", ErrNoReplicas, attempt, lastErr)
		}
		if err := r.backoff(ctx, key, attempt); err != nil {
			return serve.Result{}, err
		}
	}
}

// submit runs one attempt against rep, bounding it with AttemptTimeout.
// An attempt whose own deadline fired while the caller's context was
// still live means the replica stalled: it surfaces as ErrAttemptTimeout
// — retriable and breaker-feeding, like a connection failure, but not
// grounds to mark the replica Down.
func (r *Router) submit(ctx context.Context, rep *replica, req serve.Request) (serve.Result, error) {
	actx := ctx
	if r.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.cfg.AttemptTimeout)
		defer cancel()
	}
	rep.inflight.Add(1)
	res, err := rep.be.Generate(actx, req)
	rep.inflight.Add(-1)
	if err != nil && ctx.Err() == nil && actx.Err() != nil {
		err = fmt.Errorf("%w after %v on %q: %v", ErrAttemptTimeout, r.cfg.AttemptTimeout, rep.id, err)
	}
	return res, err
}

// mix64 is a splitmix64 finalizer, the jitter hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryDelay computes the backoff before attempt+1: RetryBackoff
// doubled per attempt, capped at RetryBackoffMax, scaled by a
// deterministic jitter in [0.5,1) derived from (JitterSeed, key,
// attempt). Pure — same inputs, same delay — so retry schedules are
// reproducible run to run. 0 when RetryBackoff is unset.
func (r *Router) retryDelay(key uint64, attempt int) time.Duration {
	base := r.cfg.RetryBackoff
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	d := base << uint(shift)
	if d > r.cfg.RetryBackoffMax || d <= 0 {
		d = r.cfg.RetryBackoffMax
	}
	frac := 0.5 + 0.5*float64(mix64(r.cfg.JitterSeed^key^uint64(attempt))>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// backoff sleeps the retry delay before attempt+1, returning early with
// the context's error if it expires mid-sleep. No-op when RetryBackoff
// is 0.
func (r *Router) backoff(ctx context.Context, key uint64, attempt int) error {
	d := r.retryDelay(key, attempt)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// breakerAllow reports whether routing may send to this replica: true
// while the breaker is closed, or once an open breaker's cooldown has
// elapsed (the half-open probe).
func (rep *replica) breakerAllow(now time.Time, threshold int) bool {
	if threshold <= 0 {
		return true
	}
	rep.brkMu.Lock()
	defer rep.brkMu.Unlock()
	return rep.brkOpenUntil.IsZero() || !now.Before(rep.brkOpenUntil)
}

// breakerFailure records one retriable failure: threshold consecutive
// failures open the breaker for cooldown, and a failed half-open probe
// re-opens it for another cooldown. Failures racing in while the breaker
// is already open do not re-trip it.
func (rep *replica) breakerFailure(now time.Time, threshold int, cooldown time.Duration) {
	if threshold <= 0 {
		return
	}
	rep.brkMu.Lock()
	defer rep.brkMu.Unlock()
	if !rep.brkOpenUntil.IsZero() {
		if now.Before(rep.brkOpenUntil) {
			return
		}
		rep.brkOpenUntil = now.Add(cooldown)
		rep.brkTrips.Add(1)
		return
	}
	rep.brkFails++
	if rep.brkFails >= threshold {
		rep.brkFails = 0
		rep.brkOpenUntil = now.Add(cooldown)
		rep.brkTrips.Add(1)
	}
}

// breakerSuccess closes the breaker: a completed request (the half-open
// probe included) proves the replica serves again, and it re-enters the
// ring with its keyspace.
func (rep *replica) breakerSuccess() {
	rep.brkMu.Lock()
	rep.brkFails = 0
	rep.brkOpenUntil = time.Time{}
	rep.brkMu.Unlock()
}

// breakerState names the breaker position for metrics: "closed", "open",
// or "half-open" (cooldown elapsed, probe pending).
func (rep *replica) breakerState(now time.Time) string {
	rep.brkMu.Lock()
	defer rep.brkMu.Unlock()
	switch {
	case rep.brkOpenUntil.IsZero():
		return "closed"
	case now.Before(rep.brkOpenUntil):
		return "open"
	default:
		return "half-open"
	}
}

type routeReason int

const (
	reasonAffinity routeReason = iota
	reasonSpill
	reasonScatter
	reasonFailover
)

func (rep *replica) countRouted(reason routeReason) {
	switch reason {
	case reasonAffinity:
		rep.routedAffinity.Add(1)
	case reasonSpill:
		rep.routedSpill.Add(1)
	case reasonScatter:
		rep.routedScatter.Add(1)
	case reasonFailover:
		rep.routedFailover.Add(1)
	}
}

// pick selects the replica for one attempt: the ring owner of key
// (skipping tried and unhealthy replicas), or the least-loaded candidate
// on failover or spill. Returns nil when no Up, untried replica remains.
func (r *Router) pick(key uint64, tried map[string]bool, failover bool) (*replica, routeReason) {
	now := time.Now()
	r.mu.Lock()
	ring := r.ring
	var candidates []*replica
	for _, rep := range r.replicas {
		// An open breaker removes the replica from the candidate set —
		// ownerAmong then reassigns its keyspace to the survivors until the
		// breaker half-opens.
		if rep.state == StateUp && !tried[rep.id] && rep.breakerAllow(now, r.cfg.BreakerThreshold) {
			candidates = append(candidates, rep)
		}
	}
	r.mu.Unlock()
	if len(candidates) == 0 {
		return nil, 0
	}
	if failover {
		// The affinity owner already failed this request; put it on the
		// least-loaded surviving replica.
		return r.leastLoaded(candidates), reasonFailover
	}
	if r.cfg.Policy == PolicyScatter {
		if rep := r.ownerAmong(ring, key, candidates); rep != nil {
			return rep, reasonScatter
		}
		return r.leastLoaded(candidates), reasonScatter
	}
	owner := r.ownerAmong(ring, key, candidates)
	if owner == nil {
		return r.leastLoaded(candidates), reasonFailover
	}
	if r.cfg.SpillMargin > 0 && len(candidates) > 1 {
		best := r.leastLoaded(candidates)
		if best != owner && r.loadScore(owner)-r.loadScore(best) > float64(r.cfg.SpillMargin) {
			return best, reasonSpill
		}
	}
	return owner, reasonAffinity
}

// ownerAmong resolves key's ring owner restricted to the candidate set
// (the ring may momentarily include replicas that just left it).
func (r *Router) ownerAmong(ring *Ring, key uint64, candidates []*replica) *replica {
	ok := make(map[string]*replica, len(candidates))
	excluded := make(map[string]bool)
	for _, rep := range candidates {
		ok[rep.id] = rep
	}
	for _, m := range ring.Members() {
		if ok[m] == nil {
			excluded[m] = true
		}
	}
	return ok[ring.OwnerExcluding(key, excluded)]
}

// loadScore is the replica's residual-load metric: the router's own
// in-flight count plus the replica's queue depth and active batch from
// its (bounded-staleness) metrics snapshot, plus its KV occupancy
// fraction as a sub-request-granularity tie-break.
func (r *Router) loadScore(rep *replica) float64 {
	score := float64(rep.inflight.Load())
	if snap, ok := r.freshSnapshot(rep); ok {
		score += float64(snap.QueueDepth) + float64(snap.ActiveSessions)
		if snap.KVBudgetRows > 0 {
			score += float64(snap.KVOccupancyRows) / float64(snap.KVBudgetRows)
		}
	}
	return score
}

// leastLoaded returns the candidate with the lowest load score, ties
// broken by id so the choice is deterministic.
func (r *Router) leastLoaded(candidates []*replica) *replica {
	best := candidates[0]
	bestScore := r.loadScore(best)
	for _, rep := range candidates[1:] {
		s := r.loadScore(rep)
		if s < bestScore || (s == bestScore && rep.id < best.id) {
			best, bestScore = rep, s
		}
	}
	return best
}

// freshSnapshot returns the replica's cached metrics snapshot,
// refreshing it inline when older than snapshotMaxAge. The prober also
// refreshes it every period, so with probing on the inline path rarely
// fires.
func (r *Router) freshSnapshot(rep *replica) (serve.Snapshot, bool) {
	rep.snapMu.Lock()
	defer rep.snapMu.Unlock()
	if time.Since(rep.snapAt) > snapshotMaxAge {
		r.mu.Lock()
		be := rep.be
		r.mu.Unlock()
		rep.snap, rep.snapOK = be.Snapshot()
		rep.snapAt = time.Now()
	}
	return rep.snap, rep.snapOK
}
