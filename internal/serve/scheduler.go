package serve

import (
	"errors"
	"fmt"
	"slices"
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

// posPages is the pool pages one page of KV positions takes: a K and a V
// page in every layer.
func (s *Server) posPages() int { return 2 * s.cfg.Model.Cfg.Layers }

// mountNeed is the pool pages a session mounted on e (nil = cold) would
// acquire to hold n > e.Rows() positions: all pages past e's whole ones,
// since a partial last page of e is copied on write.
func (s *Server) mountNeed(e *model.PrefixEntry, n int) int {
	whole := 0
	if e != nil {
		whole = e.Rows() / s.cfg.KVPageRows
	}
	return s.posPages() * (s.pageRound(n)/s.cfg.KVPageRows - whole)
}

// kvNeed is the pool pages a's session has yet to acquire before its next
// step: enough to finish its whole prefill and emit its first decode row
// (the footprint admission secured), or to append the next step's rows,
// whichever is more.
func (s *Server) kvNeed(a *activeReq) int {
	return a.sess.KVPagesToGrow(max(len(a.seq)+1, a.sess.Len()+s.chunkLen(a)))
}

// owed sums the outstanding page needs of the batch.
func (s *Server) owed() int {
	sum := 0
	for _, a := range s.batch {
		sum += s.kvNeed(a)
	}
	return sum
}

// acquirePrefix pins the longest cached prefix of prompt for the scheme's
// engine (nil on a miss or with the cache off).
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

// reclaimKV evicts unpinned cached prefixes, least recently used first,
// until the pool has need pages free or no eviction would free a page —
// cache memory yields to live sessions before the scheduler holds
// admission or preempts anyone.
func (s *Server) reclaimKV(need int) {
	for _, spec := range s.prefixOrder {
		for free := s.kvPool.Free(); need > free && s.prefixCaches[spec].EvictLRU(); free = s.kvPool.Free() {
			s.reclaims++
			if s.kvPool.Free() == free {
				s.idleReclaims++
			}
		}
	}
}

// releaseKV returns a's pages to the pool (the refcounts keep any shared
// prefix pages alive for their other holders) and unpins its prefix entry.
// A request on the wait list holds neither, so releasing it is a no-op.
func (s *Server) releaseKV(a *activeReq) {
	if a.sess != nil {
		a.sess.ReleaseKV()
		a.sess = nil
	}
	if a.entry != nil {
		s.prefixCaches[a.scheme].Release(a.entry)
		a.entry = nil
	}
}

// loop is the scheduler goroutine: it blocks until a request is queued,
// waiting or active (or Stop is called), then runs one iteration.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		if len(s.batch) == 0 && len(s.waiting) == 0 {
			select {
			case p := <-s.queue:
				s.enlist(p)
			case <-s.stop:
			}
		}
		select {
		case <-s.stop:
			s.shutdown()
			return
		default:
		}
		s.iterate(s.now())
	}
}

// iterate runs one scheduler iteration at now: schedule, then execute.
// Batches are assembled at iteration granularity (continuous batching): a
// request joins as soon as a slot — and enough free KV pages — frees,
// mid-flight requests are unaffected, and one iteration may mix prefill
// chunks of new requests with decode steps of old ones. It never blocks,
// so tests drive it directly on a fake clock.
func (s *Server) iterate(now time.Time) {
	s.schedule(now)
	s.execute()
}

// schedule is the first half of an iteration: admit → reap expired →
// secure the batch's KV growth (preempting if the pool is dry). Afterwards
// the batch's outstanding page needs fit the pool's free pages.
func (s *Server) schedule(now time.Time) {
	s.admit(now)
	s.reap(now)
	s.ensureKV(now)
	s.waitCount.Store(int64(len(s.waiting)))
}

// execute is the second half of an iteration: step the batch → retire
// finished.
func (s *Server) execute() {
	if len(s.batch) > 0 {
		s.runIteration()
		s.retire()
	}
	if len(s.batch) == 0 {
		s.metrics.idle()
		// Nothing active holds KV and the last admission wait is stale:
		// reset the brownout gauges so shedding never outlives the load
		// that triggered it.
		s.recentQueueWait.Store(0)
		s.liveKVRows.Store(0)
	}
}

// enlist moves a request that left the queue onto the end of the wait
// list, as an activeReq that has not yet been admitted.
func (s *Server) enlist(p *pending) {
	s.waiting = append(s.waiting, &activeReq{
		p:           p,
		eng:         s.cfg.Engines[p.req.Scheme],
		rng:         newRequestRNG(p.req.Seed),
		scheme:      p.req.Scheme,
		seq:         p.req.Prompt,
		emitPrefill: true,
		maxNew:      s.cfg.clampMaxNew(len(p.req.Prompt), p.req.MaxNewTokens),
	})
}

// pull enlists one queued request, reporting whether there was one.
func (s *Server) pull() bool {
	select {
	case p := <-s.queue:
		s.enlist(p)
		return true
	default:
		return false
	}
}

// admit fills free batch slots from the head of the wait list — preempted
// requests first, oldest preemption first, then the one request held at
// the head of the line — and then from the queue. A request that fits the
// batch but not the pool's free pages stays at the head of the wait list
// until pages free up, and nothing behind it is admitted: admission
// control by memory, not just slots.
func (s *Server) admit(now time.Time) {
	for len(s.batch) < s.cfg.MaxBatch {
		if len(s.waiting) == 0 && !s.pull() {
			return
		}
		a := s.waiting[0]
		if err := expired(a, now); err != nil {
			s.waiting = slices.Delete(s.waiting, 0, 1)
			s.finish(a, now, err)
			continue
		}
		if !s.mount(a, now) {
			if a.started.IsZero() && a.heldAt.IsZero() {
				a.heldAt = now
			}
			return
		}
		s.waiting = slices.Delete(s.waiting, 0, 1)
		s.batch = append(s.batch, a)
	}
}

// expired returns the terminal error of a request whose context was
// cancelled or whose deadline passed by now, and nil for a live one.
func expired(a *activeReq, now time.Time) error {
	if err := a.p.ctx.Err(); err != nil {
		return err
	}
	if d := a.p.req.Deadline; !d.IsZero() && now.After(d) {
		return ErrDeadlineExceeded
	}
	return nil
}

// mount admits a if its KV admission need fits: it pins the longest cached
// prefix of the prompt (before the fit check, so eviction cannot
// invalidate the sizing underneath it), reclaims cached prefixes if the
// pool is short, and builds a fresh session over the pinned pages whose
// prefill will (re)build a.seq — minus whatever prefix the cache covers.
// The need is the pages a's whole prefill and first decode row take,
// sized from the pinned entry's rows; it fits when the pool's free pages
// cover it on top of what the batch is owed, which already includes the
// batch's next growth. Later growth that collides with it makes ensureKV
// preempt the newest request first. A resumed request keeps its RNG
// stream and output, so the tokens it goes on to emit are exactly those
// of an unpreempted run. On a miss mount releases the pin and reports
// false.
func (s *Server) mount(a *activeReq, now time.Time) bool {
	e := s.acquirePrefix(a.scheme, a.p.req.Prompt)
	owed := s.owed()
	need := s.mountNeed(e, len(a.seq)+1)
	// An injected KV-exhaustion fault holds the request exactly as a dry
	// pool would; the next admission pass redraws, so the hold is
	// transient by construction.
	denied := s.cfg.Chaos.KVExhausted()
	s.reclaimKV(owed + need)
	if !denied && owed+need > s.kvPool.Free() && e != nil && len(s.batch) == 0 {
		// Nothing runs, so only a's own pin keeps the cache from yielding
		// what it needs (the matched entry's partial last page, or pages
		// it shares with other entries): the hit can never fit, so mount
		// cold instead of holding forever.
		s.releasePrefix(a.scheme, e)
		e = nil
		need = s.mountNeed(nil, len(a.seq)+1)
		s.reclaimKV(need)
	}
	if denied || owed+need > s.kvPool.Free() {
		s.releasePrefix(a.scheme, e)
		return false
	}
	kind := obs.KindResume
	if a.started.IsZero() {
		kind = obs.KindAdmit
		a.started = now
		a.out = make([]int, 0, a.maxNew)
		if !a.heldAt.IsZero() {
			a.heldFor = now.Sub(a.heldAt)
		}
		// The brownout gauge tracks the freshest admission wait (hold
		// included): a cheap, self-correcting overload signal — it rises as
		// admissions slow and falls with the first quick one once pressure
		// clears.
		s.recentQueueWait.Store(int64(now.Sub(a.p.enq)))
	} else {
		a.preemptedFor += now.Sub(a.preemptedAt)
	}
	a.entry = e
	a.consumed = a.kvSkipped()
	a.prefillStartTraced = false
	a.sess = s.cfg.Model.NewSessionOn(a.eng, s.kvPool, len(a.p.req.Prompt)+a.maxNew, e)
	if s.prefixCaches[a.scheme] != nil {
		s.metrics.prefixMount(a.kvSkipped())
	}
	s.tracer.Record(kind, a.p.id, s.iter, int64(need/s.posPages()*s.cfg.KVPageRows), int64(a.kvSkipped()))
	return true
}

// kvSkipped is the prefix positions a's mount served from cache.
func (a *activeReq) kvSkipped() int {
	if a.entry == nil {
		return 0
	}
	return a.entry.Rows()
}

// preemptReq evicts an active request: its pages are freed and it goes
// back on the wait list, behind earlier preemptions and ahead of every
// request never admitted, to resume later by re-prefilling the prompt
// plus every generated token but the last emitted one (which the next
// decode step appends, as it would have anyway).
func (s *Server) preemptReq(a *activeReq, now time.Time) {
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
	a.preemptedAt = now
	i := 0
	for i < len(s.waiting) && !s.waiting[i].started.IsZero() {
		i++
	}
	s.waiting = slices.Insert(s.waiting, i, a)
	s.metrics.preempt()
	s.tracer.Record(obs.KindPreempt, a.p.id, s.iter, obs.ReasonKVPressure, int64(len(a.out)))
}

// ensureKV secures this iteration's KV growth for every active request
// in admission order: each request's outstanding need, on top of what the
// requests before it are owed, must fit the pool's free pages, and when it
// does not the scheduler preempts from the tail — the most recently
// admitted request. The oldest request can always proceed: its worst-case
// footprint was checked against the whole budget at submission, so
// preemption guarantees progress rather than deadlock.
func (s *Server) ensureKV(now time.Time) {
	owed := 0
	i := 0
	for i < len(s.batch) {
		a := s.batch[i]
		need := owed + s.kvNeed(a)
		s.reclaimKV(need) // cached prefixes yield before anyone is preempted
		for need > s.kvPool.Free() && len(s.batch) > i+1 {
			s.preemptReq(s.batch[len(s.batch)-1], now)
			s.batch = s.batch[:len(s.batch)-1]
			// The victim's release may have unpinned prefix entries that
			// were unevictable a moment ago; reclaim again before taking
			// another victim.
			s.reclaimKV(need)
		}
		if need > s.kvPool.Free() {
			// a is itself the newest survivor and still cannot grow;
			// requeue it too and let the older requests run.
			s.preemptReq(a, now)
			s.batch = append(s.batch[:i], s.batch[i+1:]...)
			continue
		}
		owed = need
		i++
	}
}

// reap finishes active and waiting requests whose deadline or context
// expired.
func (s *Server) reap(now time.Time) {
	dead := func(a *activeReq) bool {
		err := expired(a, now)
		if err != nil {
			s.finish(a, now, err)
		}
		return err != nil
	}
	s.batch = slices.DeleteFunc(s.batch, dead)
	s.waiting = slices.DeleteFunc(s.waiting, dead)
}

// runIteration executes one step for every active request: plan turns
// the batch into work items, the worker pool steps them, and the
// scheduler goroutine settles donations, metrics and trace events once
// the pool joins. Every item computes exactly its requests' sequential
// model.Session results, so the grouping cannot change any request's
// tokens — only wall-clock.
func (s *Server) runIteration() {
	batch := s.batch
	s.iter++
	traced := s.tracer.Enabled()
	var iterStart time.Time
	if traced {
		iterStart = s.now()
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
		// A fused decode token is a decode step's, not a finished
		// prefill's: it came from its engine's decode item.
		var fusedTok int64
		if a.lastStepDecoded && a.lastStepPrefill == 0 {
			fusedTok = 1
		}
		fused += fusedTok
		prefill += int64(a.lastStepPrefill)
		if a.lastStepDecoded {
			decode++
			perScheme[a.scheme]++
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
			s.tracer.Record(obs.KindDecode, a.p.id, s.iter, int64(len(a.out)), fusedTok)
		}
	}
	if traced {
		s.tracer.Record(obs.KindIteration, 0, s.iter, int64(len(batch)), int64(s.now().Sub(iterStart)))
	}
	var liveRows int64
	for _, a := range batch {
		liveRows += int64(s.pageRound(a.sess.Len()))
	}
	s.liveKVRows.Store(liveRows)
	// Pages are per-layer per-K/V; convert to positions so occupancy reads
	// in the same unit as the budget.
	kvOcc := int64(s.kvPool.InUse()) * int64(s.cfg.KVPageRows) / int64(s.posPages())
	s.metrics.iteration(len(batch), prefill, decode, fused, perScheme, kvOcc)
}

// insertPrefix donates a's freshly prefilled prompt KV to its engine's
// prefix index, best effort: the entries share a's pages, and the cache
// may evict older unpinned prefixes to fit its own row cap.
func (s *Server) insertPrefix(a *activeReq) {
	if c := s.prefixCaches[a.scheme]; c != nil {
		c.Insert(a.p.req.Prompt, a.sess)
	}
}

// workItem is one unit of an iteration's model work: requests of one
// engine, stepped by one model.Step over their segments — one request's
// stepRows rows of prefill, or the one decode token of every decode-ready
// request of the engine (the decode item).
type workItem struct {
	scheme string
	reqs   []*activeReq
}

// plan assigns every request of the batch to this iteration's work items,
// on the scheduler goroutine: one decode item per engine, listed first in
// order of first appearance, then one item per prefill chunk, in batch
// order. The worker pool runs the items in parallel.
func (s *Server) plan(batch []*activeReq) []*workItem {
	var decode, prefill []*workItem
	for _, a := range batch {
		a.stepRows = s.chunkLen(a)
		if a.consumed < len(a.seq) {
			prefill = append(prefill, &workItem{scheme: a.scheme, reqs: []*activeReq{a}})
			continue
		}
		i := slices.IndexFunc(decode, func(it *workItem) bool { return it.scheme == a.scheme })
		if i < 0 {
			i = len(decode)
			decode = append(decode, &workItem{scheme: a.scheme})
		}
		decode[i].reqs = append(decode[i].reqs, a)
	}
	return append(decode, prefill...)
}

// stepAll steps every item on the worker pool — GOMAXPROCS goroutines,
// fewer when there are fewer items, none for a single item — and returns
// once all have finished. Items touch disjoint requests and sessions, so
// they run concurrently; this is where the single-threaded GEMMs get their
// parallelism.
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
// regenerated tokens), or 1 for a decode step.
func (s *Server) chunkLen(a *activeReq) int {
	if rest := len(a.seq) - a.consumed; rest > 0 {
		return min(rest, s.cfg.PrefillChunk)
	}
	return 1
}

// logitsArena recycles the work items' logits matrices across iterations.
var logitsArena = tensor.NewArena()

// stepItem advances every request of one work item by one iteration — one
// model.Step over the requests' segments — with panic isolation: a panic
// in the model step (or an injected chaos panic) is recovered into
// a.failed for every request of the item, which retire then fails with
// ErrInternal, releasing its KV pages and prefix pin. A step interleaves
// its members' KV writes, so after a mid-pass panic no member's session
// can be trusted — the blast radius is the item, never the server. Runs
// on worker goroutines; only the item's requests are written, and the
// scheduler reads them after the pool joins.
func (s *Server) stepItem(it *workItem) {
	for _, a := range it.reqs {
		a.lastStepPrefill = 0
		a.lastStepDecoded = false
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
	// plan never mixes prefill and decode in one item.
	decode := it.reqs[0].consumed == len(it.reqs[0].seq)
	segs := make([]model.Segment, len(it.reqs))
	for i, a := range it.reqs {
		if a.consumed < len(a.seq) {
			segs[i] = model.Segment{S: a.sess, Tokens: a.seq[a.consumed : a.consumed+a.stepRows]}
		} else {
			segs[i] = model.Segment{S: a.sess, Tokens: a.out[len(a.out)-1:]}
		}
	}
	logits := logitsArena.GetUninit(len(segs), s.cfg.Model.Cfg.Vocab)
	defer logitsArena.Put(logits)
	t0 := time.Now()
	model.Step(segs, logits)
	if decode {
		s.metrics.fusedStep(it.scheme, time.Since(t0))
	}
	// A finished prefill (unless it re-derives already-emitted tokens after
	// a resume) and every decode step emit from their segment's last row.
	for i, a := range it.reqs {
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
		if len(a.out) == 0 {
			a.firstTok = s.now()
		}
		a.emit(logits.Row(i))
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
	a.out = append(a.out, tok)
	a.lastStepDecoded = true
}

// retire delivers results for requests that reached their token budget
// or failed their step, returning their pages to the pool. A finishing
// request donates its prompt prefix to the cache one last time: this
// refreshes the entries' recency, and it is the attempt that succeeds when
// pinned entries kept the cache's row cap full at prefill-completion time.
func (s *Server) retire() {
	now := s.now()
	s.batch = slices.DeleteFunc(s.batch, func(a *activeReq) bool {
		switch {
		case a.failed != nil:
			// Panic isolation lands here: the offending request leaves with
			// ErrInternal, its pages and prefix pin go back to the pool, and
			// the rest of the batch never notices.
			s.finish(a, now, a.failed)
		case len(a.out) >= a.maxNew:
			if a.consumed == len(a.seq) {
				s.insertPrefix(a)
			}
			s.finish(a, now, nil)
		default:
			return false
		}
		return true
	})
}

// shutdown fails everything still active, waiting or queued, and flushes
// the prefix caches so a stopped server holds no pool pages.
func (s *Server) shutdown() {
	now := s.now()
	for s.pull() {
	}
	for _, a := range append(s.batch, s.waiting...) {
		s.finish(a, now, ErrStopped)
	}
	s.batch, s.waiting = nil, nil
	s.waitCount.Store(0)
	for _, c := range s.prefixCaches {
		c.Flush()
	}
}

// finish releases a's KV, delivers its Result, and records its metrics,
// stage timings and terminal trace event.
func (s *Server) finish(a *activeReq, now time.Time, err error) {
	s.releaseKV(a)
	p := a.p
	r := Result{
		ID:            p.id,
		Scheme:        p.req.Scheme,
		Tokens:        a.out,
		Err:           err,
		Latency:       now.Sub(p.enq),
		PrefillTokens: a.prefilled,
	}
	if !a.firstTok.IsZero() {
		r.TTFT = a.firstTok.Sub(p.enq)
	}
	switch {
	case err == nil:
		s.metrics.complete(r.Latency, r.TTFT, !a.firstTok.IsZero())
		// Stage durations from the lifecycle transition timestamps:
		// queue wait spans enqueue → admission (hold included), prefill
		// spans admission → first token, decode the rest. Preempted time
		// is tracked separately and overlaps prefill/decode.
		queueWait := a.started.Sub(p.enq)
		prefillD := a.firstTok.Sub(a.started)
		decodeD := now.Sub(a.firstTok)
		s.metrics.stages(queueWait, a.heldFor, prefillD, decodeD, a.preemptedFor)
		s.tracer.Record(obs.KindComplete, p.id, s.iter, int64(len(a.out)), 0)
	case errors.Is(err, ErrDeadlineExceeded):
		s.metrics.expire()
		s.tracer.Record(obs.KindExpire, p.id, s.iter, obs.ReasonDeadline, int64(len(a.out)))
	case errors.Is(err, ErrStopped):
		s.tracer.Record(obs.KindCancel, p.id, s.iter, obs.ReasonStopped, int64(len(a.out)))
	case errors.Is(err, ErrInternal):
		s.metrics.internalError()
		s.tracer.Record(obs.KindCancel, p.id, s.iter, obs.ReasonInternal, int64(len(a.out)))
	default:
		s.tracer.Record(obs.KindCancel, p.id, s.iter, obs.ReasonCanceled, int64(len(a.out)))
	}
	p.done <- r
}
