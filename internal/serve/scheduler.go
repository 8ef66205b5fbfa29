package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/tensor"
)

// newRequestRNG builds the per-request sampling RNG. The batched scheduler
// and the unbatched reference path (DecodeUnbatched) both use it, so
// sampled decodes stay bit-identical across the two.
func newRequestRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed ^ 0x5e11e) }

// clampMaxNew applies the request defaults: at least one token, at most
// what fits in the model context after the prompt (prompt + maxNew-1
// fed-back tokens occupy positions).
func (c *Config) clampMaxNew(promptLen, maxNew int) int {
	if maxNew <= 0 {
		maxNew = 1
	}
	if limit := c.Model.Cfg.MaxSeq - promptLen + 1; maxNew > limit {
		maxNew = limit
	}
	return maxNew
}

// pageRoundUp rounds a row count up to a multiple of the page size.
func pageRoundUp(rows, pageRows int) int {
	return (rows + pageRows - 1) / pageRows * pageRows
}

// pageRound rounds a row count up to the server's KV page granularity.
func (s *Server) pageRound(rows int) int {
	return pageRoundUp(rows, s.cfg.KVPageRows)
}

// pageFloor rounds a row count down to the server's KV page granularity.
func (s *Server) pageFloor(rows int) int {
	return rows / s.cfg.KVPageRows * s.cfg.KVPageRows
}

// admissionNeed is the KV reservation a request entering the batch with a
// seqLen-token prefill must secure: enough to prefill fully and emit its
// first decode row. Growth beyond it is reserved iteration by iteration.
func (s *Server) admissionNeed(seqLen int) int {
	return s.pageRound(seqLen + 1)
}

// kvFits reports whether a reservation of need rows fits the remaining
// budget (always true without a budget).
func (s *Server) kvFits(need int) bool {
	return s.cfg.KVBudgetRows == 0 || need <= s.kvFree
}

// acquirePrefix pins the longest cached prefix of prompt for the scheme's
// engine (nil on a miss, with the cache off, or for engines without a
// prefix index).
func (s *Server) acquirePrefix(scheme string, prompt []int) *model.PrefixEntry {
	c := s.prefixCaches[scheme]
	if c == nil {
		return nil
	}
	return c.Acquire(prompt)
}

// releasePrefix drops an admission-time pin that never reached a session.
func (s *Server) releasePrefix(scheme string, e *model.PrefixEntry) {
	if e != nil {
		s.prefixCaches[scheme].Release(e)
	}
}

// prefixBase is the page-aligned floor of an entry's covered rows: the
// positions a mounting session reads from cache-charged pages and is
// therefore not charged for itself. The partial last page of a mid-page
// match stays in the session's own charge — copy-on-write gives it a
// private copy of that page.
func (s *Server) prefixBase(e *model.PrefixEntry) int {
	if e == nil {
		return 0
	}
	return s.pageFloor(e.Rows())
}

// reclaimKV evicts unreferenced cached prefixes, least recently used
// first, until need rows fit the budget or nothing evictable remains —
// cache memory yields to live sessions before the scheduler holds
// admission or preempts anyone.
func (s *Server) reclaimKV(need int) {
	if s.cfg.KVBudgetRows == 0 || s.prefixCaches == nil {
		return
	}
	for _, spec := range s.prefixOrder {
		if need <= s.kvFree {
			return
		}
		s.kvFree += s.prefixCaches[spec].EvictLRU(need - s.kvFree)
	}
}

// reserveKV charges need rows of the budget to a.
func (s *Server) reserveKV(a *activeReq, need int) {
	if s.cfg.KVBudgetRows == 0 {
		return
	}
	s.kvFree -= need
	a.kvHeld += need
}

// releaseKV returns a's pages to the pool (the refcounts keep any shared
// prefix pages alive for their other holders), unpins its prefix entry,
// and returns its reservation to the budget.
func (s *Server) releaseKV(a *activeReq) {
	if a.sess != nil {
		a.sess.ReleaseKV()
		a.sess = nil
	}
	if a.entry != nil {
		s.prefixCaches[a.scheme].Release(a.entry)
		a.entry = nil
	}
	a.kvBase = 0
	s.kvFree += a.kvHeld
	a.kvHeld = 0
}

// newSession mounts a session on paged stores drawing from the shared
// pool, seeded with a pinned prefix entry's shared pages when one matched.
func (s *Server) newSession(eng model.Engine, capRows int, e *model.PrefixEntry) *model.Session {
	pool := s.kvPool
	return s.cfg.Model.NewSessionWithPrefix(eng, func() model.KVStore {
		return tensor.NewPagedRows(pool, capRows)
	}, e)
}

// updateWait mirrors the scheduler-local wait state (held + preempted)
// into the atomic the queue-depth gauge reads.
func (s *Server) updateWait() {
	n := int64(len(s.preempted))
	if s.held != nil {
		n++
	}
	s.waitCount.Store(n)
}

// loop is the scheduler: admit → reap expired → reserve KV growth
// (preempting if the pool is dry) → run one iteration over the active
// batch → retire finished, forever. Batches are assembled at iteration
// granularity (continuous batching): a request joins as soon as a slot —
// and, with a KV budget, enough pool headroom — frees, mid-flight
// requests are unaffected, and one iteration may mix prefill chunks of
// new requests with decode steps of old ones.
func (s *Server) loop() {
	defer s.wg.Done()
	var batch []*activeReq
	for {
		if len(batch) == 0 {
			s.metrics.idle()
			// Nothing active holds KV and the last admission wait is stale:
			// reset the brownout gauges so shedding never outlives the load
			// that triggered it.
			s.recentQueueWait.Store(0)
			s.liveKVRows.Store(0)
		}
		batch = s.admit(batch)
		s.updateWait()
		select {
		case <-s.stop:
			s.shutdown(batch)
			return
		default:
		}
		if len(batch) == 0 {
			continue // admit blocked on the queue and was woken by stop
		}
		now := time.Now()
		batch = s.reap(batch, now)
		if len(batch) == 0 {
			continue
		}
		batch = s.ensureKV(batch)
		s.updateWait()
		if len(batch) == 0 {
			continue
		}
		s.runIteration(batch)
		batch = s.retire(batch)
	}
}

// admit fills free batch slots: preempted requests resume first (oldest
// preemption first), then the KV-blocked held request, then the queue.
// With nothing active or waiting it blocks until a request or stop
// arrives; otherwise it takes whatever is immediately admissible. A
// request that fits the batch but not the remaining KV budget is held at
// the head of the line until pages free up — admission control by memory,
// not just slots.
func (s *Server) admit(batch []*activeReq) []*activeReq {
	for len(batch) < s.cfg.MaxBatch {
		if len(s.preempted) > 0 {
			a := s.preempted[0]
			now := time.Now()
			switch {
			case a.p.ctx.Err() != nil:
				s.preempted = s.preempted[1:]
				s.finish(a.p, a, now, a.p.ctx.Err())
			case !a.p.req.Deadline.IsZero() && now.After(a.p.req.Deadline):
				s.preempted = s.preempted[1:]
				s.metrics.expire()
				s.finish(a.p, a, now, ErrDeadlineExceeded)
			default:
				// The resume prefill may itself hit the prefix cache: the
				// pin must be taken before the fit check so eviction
				// cannot invalidate the sizing underneath it.
				e := s.acquirePrefix(a.scheme, a.p.req.Prompt)
				need := s.admissionNeed(len(a.seq)) - s.prefixBase(e)
				denied := s.cfg.Chaos.KVExhausted()
				if denied || !s.kvFits(need) {
					s.reclaimKV(need)
				}
				if denied || !s.kvFits(need) {
					s.releasePrefix(a.scheme, e)
					return batch // wait for pages to free before anything newer
				}
				s.preempted = s.preempted[1:]
				s.resume(a, e)
				batch = append(batch, a)
			}
			continue
		}
		p := s.held
		s.held = nil
		if p == nil {
			if len(batch) == 0 {
				select {
				case p = <-s.queue:
				case <-s.stop:
					return batch
				}
			} else {
				select {
				case p = <-s.queue:
				default:
					return batch
				}
			}
		}
		// Admission needs no growth headroom beyond the prompt footprint:
		// if the batch's next growth collides with a fresh admission,
		// ensureKV preempts the newcomer — the LIFO victim with the least
		// progress to lose (prefill only starts after ensureKV, so a
		// same-iteration eviction discards nothing but a session object).
		// A prefix-cache hit shrinks the footprint to the unshared tail;
		// before holding, unreferenced cached prefixes are evicted to make
		// room — live requests outrank cache retention.
		e := s.acquirePrefix(p.req.Scheme, p.req.Prompt)
		need := s.admissionNeed(len(p.req.Prompt)) - s.prefixBase(e)
		// An injected KV-exhaustion fault holds the request exactly as a dry
		// pool would; the next admission pass redraws, so the hold is
		// transient by construction.
		denied := s.cfg.Chaos.KVExhausted()
		if denied || !s.kvFits(need) {
			s.reclaimKV(need)
		}
		if denied || !s.kvFits(need) {
			s.releasePrefix(p.req.Scheme, e)
			if p.ctx.Err() != nil || (!p.req.Deadline.IsZero() && time.Now().After(p.req.Deadline)) {
				s.activate(p, nil) // finishes the dead request, returns nil
				continue
			}
			if p.heldAt.IsZero() {
				p.heldAt = time.Now()
			}
			s.held = p
			return batch
		}
		if a := s.activate(p, e); a != nil {
			batch = append(batch, a)
		}
	}
	return batch
}

// activate turns a queued request into an active one — mounting the
// pinned prefix entry (if any) and reserving the unshared remainder of
// its prompt's KV admission need — or finishes it immediately if it is
// already cancelled or expired.
func (s *Server) activate(p *pending, e *model.PrefixEntry) *activeReq {
	now := time.Now()
	if err := p.ctx.Err(); err != nil {
		s.releasePrefix(p.req.Scheme, e)
		s.finish(p, nil, now, err)
		return nil
	}
	if !p.req.Deadline.IsZero() && now.After(p.req.Deadline) {
		s.releasePrefix(p.req.Scheme, e)
		s.metrics.expire()
		s.finish(p, nil, now, ErrDeadlineExceeded)
		return nil
	}
	maxNew := s.cfg.clampMaxNew(len(p.req.Prompt), p.req.MaxNewTokens)
	eng := s.cfg.Engines[p.req.Scheme]
	a := &activeReq{
		p:           p,
		eng:         eng,
		rng:         newRequestRNG(p.req.Seed),
		scheme:      p.req.Scheme,
		seq:         p.req.Prompt,
		emitPrefill: true,
		maxNew:      maxNew,
		out:         make([]int, 0, maxNew),
		started:     now,
	}
	if !p.heldAt.IsZero() {
		a.heldFor = now.Sub(p.heldAt)
	}
	// The brownout gauge tracks the freshest admission wait (hold included):
	// a cheap, self-correcting overload signal — it rises as admissions slow
	// and falls with the first quick one once pressure clears.
	s.recentQueueWait.Store(int64(now.Sub(p.enq)))
	s.mount(a, e, len(p.req.Prompt)+maxNew)
	s.tracer.Record(obs.KindAdmit, p.id, s.iter, int64(a.kvHeld), int64(a.kvSkipped()))
	return a
}

// kvSkipped is the prefix positions a's mount served from cache.
func (a *activeReq) kvSkipped() int {
	if a.entry == nil {
		return 0
	}
	return a.entry.Rows()
}

// resume re-enters a preempted request: a fresh session whose prefill
// will rebuild the retained prompt + generated tokens — minus whatever
// prefix the cache still covers. The request keeps its RNG stream and
// output, so the tokens it goes on to emit are exactly those of an
// unpreempted run.
func (s *Server) resume(a *activeReq, e *model.PrefixEntry) {
	a.consumed = 0
	if !a.preemptedAt.IsZero() {
		a.preemptedFor += time.Since(a.preemptedAt)
		a.preemptedAt = time.Time{}
	}
	s.mount(a, e, len(a.seq)+a.maxNew-len(a.out)+1)
	s.tracer.Record(obs.KindResume, a.p.id, s.iter, int64(a.kvHeld), int64(a.kvSkipped()))
}

// mount builds a's session over the server's KV layout, seeds it with the
// pinned prefix entry (marking its covered tokens consumed), and reserves
// the admission need net of the cache-charged base.
func (s *Server) mount(a *activeReq, e *model.PrefixEntry, capRows int) {
	a.entry = e
	a.kvBase = s.prefixBase(e)
	a.prefillStartTraced = false
	a.sess = s.newSession(a.eng, capRows, e)
	if e != nil {
		a.consumed = e.Rows()
	}
	s.reserveKV(a, s.admissionNeed(len(a.seq))-a.kvBase)
	if s.prefixCaches[a.scheme] != nil {
		skipped := 0
		if e != nil {
			skipped = e.Rows()
		}
		s.metrics.prefixMount(skipped)
	}
}

// preemptReq evicts an active request: its pages are freed and it is
// queued to resume later by re-prefilling the prompt plus every generated
// token but the last emitted one (which the next decode step appends, as
// it would have anyway).
func (s *Server) preemptReq(a *activeReq) {
	s.releaseKV(a)
	if len(a.out) > 0 {
		seq := make([]int, 0, len(a.p.req.Prompt)+len(a.out)-1)
		seq = append(seq, a.p.req.Prompt...)
		a.seq = append(seq, a.out[:len(a.out)-1]...)
		a.emitPrefill = false
	} else {
		a.seq = a.p.req.Prompt
		a.emitPrefill = true
	}
	a.consumed = 0
	a.preemptedAt = time.Now()
	s.preempted = append(s.preempted, a)
	s.metrics.preempt()
	s.tracer.Record(obs.KindPreempt, a.p.id, s.iter, obs.ReasonKVPressure, int64(len(a.out)))
}

// ensureKV reserves this iteration's page-granular KV growth for every
// active request in admission order, preempting from the tail — the most
// recently admitted request — whenever the budget runs dry. The oldest
// request can always proceed: its worst-case footprint was checked
// against the whole budget at submission, so preemption guarantees
// progress rather than deadlock. No-op without a budget.
func (s *Server) ensureKV(batch []*activeReq) []*activeReq {
	if s.cfg.KVBudgetRows == 0 {
		return batch
	}
	i := 0
	for i < len(batch) {
		a := batch[i]
		need := s.pageRound(a.sess.Len()+s.chunkLen(a)) - a.kvBase - a.kvHeld
		if need < 0 {
			need = 0
		}
		if need > s.kvFree {
			s.reclaimKV(need) // cached prefixes yield before anyone is preempted
		}
		for need > s.kvFree && len(batch) > i+1 {
			s.preemptReq(batch[len(batch)-1])
			batch = batch[:len(batch)-1]
			// The victim's release may have unpinned prefix entries that
			// were unevictable a moment ago; reclaim again before taking
			// another victim.
			if need > s.kvFree {
				s.reclaimKV(need)
			}
		}
		if need > s.kvFree {
			// a is itself the newest survivor and still cannot grow;
			// requeue it too and let the older requests run.
			s.preemptReq(a)
			batch = append(batch[:i], batch[i+1:]...)
			continue
		}
		s.kvFree -= need
		a.kvHeld += need
		i++
	}
	return batch
}

// reap fails active and preempted requests whose deadline or context
// expired, returning the surviving batch.
func (s *Server) reap(batch []*activeReq, now time.Time) []*activeReq {
	kept := batch[:0]
	for _, a := range batch {
		if !s.reapOne(a, now) {
			kept = append(kept, a)
		}
	}
	keptP := s.preempted[:0]
	for _, a := range s.preempted {
		if !s.reapOne(a, now) {
			keptP = append(keptP, a)
		}
	}
	s.preempted = keptP
	return kept
}

// reapOne finishes a if its context or deadline expired (releasing any KV
// it holds) and reports whether it did.
func (s *Server) reapOne(a *activeReq, now time.Time) bool {
	switch {
	case a.p.ctx.Err() != nil:
		s.releaseKV(a)
		s.finish(a.p, a, now, a.p.ctx.Err())
	case !a.p.req.Deadline.IsZero() && now.After(a.p.req.Deadline):
		s.releaseKV(a)
		s.metrics.expire()
		s.finish(a.p, a, now, ErrDeadlineExceeded)
	default:
		return false
	}
	return true
}

// runIteration executes one step for every active request: plan turns
// the batch into work items, the worker pool steps them, and the
// scheduler goroutine settles donations, metrics and trace events once
// the pool joins. Every item computes exactly its requests' sequential
// model.Session results, so the grouping cannot change any request's
// tokens — only wall-clock.
func (s *Server) runIteration(batch []*activeReq) {
	s.iter++
	traced := s.tracer.Enabled()
	var iterStart time.Time
	if traced {
		iterStart = time.Now()
	}
	s.stepAll(s.plan(batch))
	// Donate completed prefills to the prefix index (scheduler goroutine,
	// after the pool joins): the next prompt sharing the prefix mounts
	// these pages instead of recomputing them.
	if s.prefixCaches != nil {
		for _, a := range batch {
			// A failed request never donates: a step that panicked may have
			// left partially appended KV, and poisoning the cache would
			// break bit-identity for every later hit.
			if a.failed == nil && a.lastStepPrefill > 0 && a.consumed == len(a.seq) {
				s.insertPrefix(a)
			}
		}
	}
	var prefill, decode, fused int64
	perScheme := make(map[string]int64, 1)
	for _, a := range batch {
		if a.lastStepPrefill > 0 {
			prefill += int64(a.lastStepPrefill)
		}
		if a.lastStepDecoded {
			decode++
			perScheme[a.scheme]++
			if a.lastStepFused {
				fused++
			}
		}
		if !traced {
			continue
		}
		// Trace events are recorded here — on the scheduler goroutine,
		// after the pool joins — so the tracer never contends with (or
		// races) the step workers.
		if a.lastStepPrefill > 0 {
			if !a.prefillStartTraced {
				a.prefillStartTraced = true
				pending := int64(len(a.seq) - a.consumed + a.lastStepPrefill)
				s.tracer.Record(obs.KindPrefillStart, a.p.id, s.iter, pending, 0)
			}
			if a.consumed == len(a.seq) {
				s.tracer.Record(obs.KindPrefillEnd, a.p.id, s.iter, int64(a.consumed), 0)
			}
		}
		if a.lastStepDecoded {
			var f int64
			if a.lastStepFused {
				f = 1
			}
			s.tracer.Record(obs.KindDecode, a.p.id, s.iter, int64(len(a.out)), f)
		}
	}
	if traced {
		s.tracer.Record(obs.KindIteration, 0, s.iter, int64(len(batch)), int64(time.Since(iterStart)))
	}
	var liveRows int64
	for _, a := range batch {
		liveRows += int64(a.kvHeld)
	}
	s.liveKVRows.Store(liveRows)
	// Pages are per-layer per-K/V; convert to positions so occupancy reads
	// in the same unit as the budget.
	kvOcc := int64(s.kvPool.InUse()) * int64(s.cfg.KVPageRows) / int64(2*s.cfg.Model.Cfg.Layers)
	s.metrics.iteration(len(batch), prefill, decode, fused, perScheme, kvOcc)
}

// insertPrefix donates a's freshly prefilled prompt KV to its engine's
// prefix index, best effort: the new charge is bounded by the remaining
// KV budget (cached pages must never crowd out admissible requests), and
// the cache may evict older unpinned prefixes to fit its own cap — both
// movements settle against the budget here.
func (s *Server) insertPrefix(a *activeReq) {
	c := s.prefixCaches[a.scheme]
	if c == nil {
		return
	}
	maxCharge := int(^uint(0) >> 1)
	if s.cfg.KVBudgetRows > 0 {
		maxCharge = s.kvFree
	}
	charged, freed, _ := c.Insert(a.p.req.Prompt, a.sess, maxCharge)
	if s.cfg.KVBudgetRows > 0 {
		s.kvFree += freed - charged
	}
}

// workItem is one unit of an iteration's model work: a fused decode of
// every decode-ready request on one row-independent engine (bs set), or
// one request's prefill chunk or row-coupled decode step. Each request's
// rows for the step are its stepRows.
type workItem struct {
	reqs []*activeReq
	bs   *model.BatchStepper
}

// plan assigns every request of the batch to this iteration's work items,
// on the scheduler goroutine. Decode-ready requests on an engine with a
// fused stepper share one item per engine, listed first in order of first
// appearance; prefill chunks and decodes on row-coupled engines get an
// item each, in batch order.
func (s *Server) plan(batch []*activeReq) []*workItem {
	var groups, rest []*workItem
	for _, a := range batch {
		a.stepRows = s.chunkLen(a)
		bs := s.stepper(a.scheme, a.eng)
		if a.consumed < len(a.seq) || bs == nil {
			rest = append(rest, &workItem{reqs: []*activeReq{a}})
			continue
		}
		var g *workItem
		for _, cand := range groups {
			if cand.bs == bs {
				g = cand
				break
			}
		}
		if g == nil {
			g = &workItem{bs: bs}
			groups = append(groups, g)
		}
		g.reqs = append(g.reqs, a)
	}
	return append(groups, rest...)
}

// stepAll steps every item on the worker pool — GOMAXPROCS goroutines,
// fewer when there are fewer items, none for a single item — and returns
// once all have finished. Items touch disjoint requests and sessions, and
// each fused stepper belongs to exactly one item, so they run
// concurrently; the pool is where the single-threaded integer GEMM gets
// its prefill parallelism.
func (s *Server) stepAll(items []*workItem) {
	workers := min(s.workers, len(items))
	if workers <= 1 {
		for _, it := range items {
			s.stepItem(it)
		}
		return
	}
	idx := make(chan *workItem)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range idx {
				s.stepItem(it)
			}
		}()
	}
	for _, it := range items {
		idx <- it
	}
	close(idx)
	wg.Wait()
}

// chunkLen is the rows a's next step appends: the next chunk of its
// pending sequence (the prompt, or after a preemption prompt +
// regenerated tokens), or 1 for a decode step. A row-coupled engine — one
// without a fused stepper — is exact only for the Append calls
// DecodeUnbatched makes, so its prefill takes the rest of the prompt in
// one piece and a resume re-prefills generated tokens one at a time.
func (s *Server) chunkLen(a *activeReq) int {
	rest := len(a.seq) - a.consumed
	switch {
	case rest == 0:
		return 1
	case s.stepper(a.scheme, a.eng) != nil:
		return min(rest, s.cfg.PrefillChunk)
	case a.consumed < len(a.p.req.Prompt):
		return len(a.p.req.Prompt) - a.consumed
	default:
		return 1
	}
}

// stepper returns the fused stepper for eng, creating it on first use.
// Engines that fail the row-independence audit (model.NewBatchStepper
// errors, e.g. OliVe's row-coupled encoding) are cached as nil: they step
// one request at a time and take no prefix cache.
// Only the scheduler goroutine touches the cache. New steppers get a step
// hook feeding the per-spec fused-step timing histogram (the spec of the
// first request that reached the engine names the series).
func (s *Server) stepper(scheme string, eng model.Engine) *model.BatchStepper {
	if bs, seen := s.steppers[eng]; seen {
		return bs
	}
	bs, err := s.cfg.Model.NewBatchStepper(eng)
	if err != nil {
		bs = nil
	}
	if bs != nil {
		bs.SetStepHook(func(batch int, d time.Duration) {
			s.metrics.fusedStep(scheme, d)
		})
	}
	s.steppers[eng] = bs
	return bs
}

// stepItem advances every request of one work item by one iteration, with
// panic isolation: a panic in the model step (or an injected chaos panic)
// is recovered into a.failed for every request of the item, which retire
// then fails with ErrInternal, releasing its KV pages and prefix pin. A
// fused step interleaves its members' KV writes, so after a mid-pass
// panic no member's session can be trusted — the blast radius is the
// item, never the server. Runs on worker goroutines; only the item's
// requests are written, and the scheduler reads them after the pool
// joins.
func (s *Server) stepItem(it *workItem) {
	for _, a := range it.reqs {
		a.lastStepPrefill = 0
		a.lastStepDecoded = false
		a.lastStepFused = false
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("%w: step panicked: %v", ErrInternal, r)
			for _, a := range it.reqs {
				a.failed = err
			}
		}
	}()
	if s.cfg.Chaos.StepPanic() {
		panic("chaos: injected step panic")
	}
	var logits *tensor.Matrix
	if it.bs != nil {
		sessions := make([]*model.Session, len(it.reqs))
		tokens := make([]int, len(it.reqs))
		for i, a := range it.reqs {
			sessions[i], tokens[i] = a.sess, a.out[len(a.out)-1]
		}
		logits = it.bs.Step(sessions, tokens)
	} else if a := it.reqs[0]; a.consumed < len(a.seq) {
		logits = a.sess.Append(a.seq[a.consumed : a.consumed+a.stepRows])
	} else {
		logits = a.sess.Append(a.out[len(a.out)-1:])
	}
	// Each request's rows follow the previous one's; a finished prefill
	// (unless it re-derives already-emitted tokens after a resume) and
	// every decode step emit from their last row.
	row := 0
	for _, a := range it.reqs {
		row += a.stepRows
		if a.consumed < len(a.seq) {
			a.consumed += a.stepRows
			a.lastStepPrefill = a.stepRows
			if p := min(a.consumed, len(a.p.req.Prompt)); p > a.prefilled {
				a.prefilled = p
			}
			if a.consumed < len(a.seq) || !a.emitPrefill {
				continue
			}
		}
		a.emit(logits.Row(row - 1))
		a.lastStepFused = it.bs != nil
	}
}

// emit appends the next token chosen from a logits row.
func (a *activeReq) emit(row []float64) {
	var tok int
	if a.p.req.Temperature > 0 {
		tok = model.Sample(row, a.p.req.Temperature, a.rng.Float64())
	} else {
		tok = model.Greedy(row)
	}
	if len(a.out) == 0 {
		a.firstTok = time.Now()
	}
	a.out = append(a.out, tok)
	a.lastStepDecoded = true
}

// retire delivers results for requests that reached their token budget,
// returning their pages to the pool. A finishing request donates its
// prompt prefix to the cache one last time, funded by the budget it is
// about to release — this is the attempt that succeeds when the pool was
// too tight at prefill-completion time (the whole point of caching under
// pressure: memory frees exactly when a request ends).
func (s *Server) retire(batch []*activeReq) []*activeReq {
	now := time.Now()
	kept := batch[:0]
	for _, a := range batch {
		if a.failed != nil {
			// Panic isolation lands here: the offending request leaves with
			// ErrInternal, its pages and prefix pin go back to the pool, and
			// the rest of the batch never notices.
			s.metrics.internalError()
			s.releaseKV(a)
			s.finish(a.p, a, now, a.failed)
			continue
		}
		if len(a.out) >= a.maxNew {
			if s.prefixCaches != nil && a.consumed == len(a.seq) {
				s.kvFree += a.kvHeld
				a.kvHeld = 0
				s.insertPrefix(a)
			}
			s.releaseKV(a)
			s.finish(a.p, a, now, nil)
			continue
		}
		kept = append(kept, a)
	}
	return kept
}

// shutdown fails everything still active, preempted, held or queued, and
// flushes the prefix caches so a stopped server holds no pool pages.
func (s *Server) shutdown(batch []*activeReq) {
	now := time.Now()
	for _, a := range batch {
		s.releaseKV(a)
		s.finish(a.p, a, now, ErrStopped)
	}
	for _, a := range s.preempted {
		s.finish(a.p, a, now, ErrStopped)
	}
	s.preempted = nil
	if s.held != nil {
		s.finish(s.held, nil, now, ErrStopped)
		s.held = nil
	}
	s.updateWait()
	for _, c := range s.prefixCaches {
		s.kvFree += c.Flush()
	}
	for {
		select {
		case p := <-s.queue:
			s.finish(p, nil, now, ErrStopped)
		default:
			return
		}
	}
}

// finish delivers a Result, records metrics and stage timings, and logs
// the terminal trace event. a is nil for requests that never activated
// (dead on arrival, held or queued at shutdown) — always a failure path.
func (s *Server) finish(p *pending, a *activeReq, now time.Time, err error) {
	var out []int
	prefilled := 0
	var firstTok time.Time
	if a != nil {
		out, prefilled, firstTok = a.out, a.prefilled, a.firstTok
	}
	r := Result{
		ID:            p.id,
		Scheme:        p.req.Scheme,
		Tokens:        out,
		Err:           err,
		Latency:       now.Sub(p.enq),
		PrefillTokens: prefilled,
	}
	if !firstTok.IsZero() {
		r.TTFT = firstTok.Sub(p.enq)
	}
	if err == nil {
		s.metrics.complete(r.Latency, r.TTFT, !firstTok.IsZero())
		// Stage durations from the lifecycle transition timestamps:
		// queue wait spans enqueue → admission (hold included), prefill
		// spans admission → first token, decode the rest. Preempted time
		// is tracked separately and overlaps prefill/decode.
		queueWait := a.started.Sub(p.enq)
		prefillD := firstTok.Sub(a.started)
		decodeD := now.Sub(firstTok)
		s.metrics.stages(queueWait, a.heldFor, prefillD, decodeD, a.preemptedFor)
	}
	switch {
	case err == nil:
		s.tracer.Record(obs.KindComplete, p.id, s.iter, int64(len(out)), 0)
	case errors.Is(err, ErrDeadlineExceeded):
		s.tracer.Record(obs.KindExpire, p.id, s.iter, obs.ReasonDeadline, int64(len(out)))
	case errors.Is(err, ErrStopped):
		s.tracer.Record(obs.KindCancel, p.id, s.iter, obs.ReasonStopped, int64(len(out)))
	case errors.Is(err, ErrInternal):
		s.tracer.Record(obs.KindCancel, p.id, s.iter, obs.ReasonInternal, int64(len(out)))
	default:
		s.tracer.Record(obs.KindCancel, p.id, s.iter, obs.ReasonCanceled, int64(len(out)))
	}
	p.done <- r
}
