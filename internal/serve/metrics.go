package serve

import (
	"io"
	"sort"
	"sync"
	"time"

	"tender/internal/obs"
)

// latencyWindow bounds how many recent samples back each quantile.
const latencyWindow = 8192

// rateWindowSecs is the span of the windowed decode-throughput gauge:
// Snapshot.TokensPerSec10s averages over the trailing window instead of
// the whole uptime, so an idle or cooling server converges to zero
// instead of reporting its lifetime mean forever.
const rateWindowSecs = 10

// rateBucket accumulates the decode tokens of one wall-clock second.
type rateBucket struct {
	sec    int64
	tokens int64
}

// ring is a fixed-capacity sample window for latency quantiles.
type ring struct {
	buf  []float64
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]float64, n)} }

func (r *ring) push(v float64) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// samples returns a copy of the window's live samples.
func (r *ring) samples() []float64 {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]float64, n)
	copy(out, r.buf[:n])
	return out
}

// quantile returns the q-th quantile (0..1) of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

// Metrics aggregates the server's live counters. All methods are safe for
// concurrent use.
type Metrics struct {
	defaultScheme string
	kvBudgetRows  int
	kvPageRows    int
	kvDtype       string
	kvBytesPerRow int
	queueDepth    func() int
	// kvPages reads the shared block pool (pages in use, cumulative
	// allocs, cumulative frees); nil under contiguous KV.
	kvPages func() (int64, int64, int64)
	// prefixStats reads the prefix caches (held rows, held pages, entries,
	// cumulative evictions); nil with the prefix cache off.
	prefixStats func() (int64, int64, int64, int64)
	start       time.Time
	// now is the clock every rate window and uptime read goes through;
	// tests inject a fake one to make windowed rates deterministic.
	now func() time.Time

	mu              sync.Mutex
	completed       int64
	rejected        int64
	drainRejected   int64
	brownoutShed    int64
	invalidRejected int64
	internalErrors  int64
	expired         int64
	preemptions     int64
	prefillTokens   int64
	decodeTokens    int64
	fusedTokens     int64
	perScheme       map[string]int64
	iterations      int64
	batchOccupancy  int64
	activeSessions  int64
	peakActive      int64
	kvOccRows       int64
	kvPeakOccRows   int64
	prefixHits      int64
	prefixMisses    int64
	prefixSkipped   int64
	latencies       *ring
	ttfts           *ring
	rate            [rateWindowSecs + 1]rateBucket
	// Per-stage timing: full-history log-bucket histograms over the
	// request lifecycle, fed from transition timestamps at completion
	// (never per-token clock reads). Hold and preempted time are observed
	// only when nonzero — most requests never wait on KV pages, and a
	// histogram of zeros would bury the pressure signal.
	stageQueueWait obs.Histogram
	stageHold      obs.Histogram
	stagePrefill   obs.Histogram
	stageDecode    obs.Histogram
	stagePreempted obs.Histogram
	latencyHist    obs.Histogram
	ttftHist       obs.Histogram
	// fusedStepMs times each fused BatchStepper.Step per engine spec, via
	// the model-layer step hook.
	fusedStepMs map[string]*obs.Histogram
}

func newMetrics(defaultScheme string, kvBudgetRows, kvPageRows int, kvDtype string, kvBytesPerRow int, queueDepth func() int, kvPages func() (int64, int64, int64), prefixStats func() (int64, int64, int64, int64)) *Metrics {
	return &Metrics{
		defaultScheme: defaultScheme,
		kvBudgetRows:  kvBudgetRows,
		kvPageRows:    kvPageRows,
		kvDtype:       kvDtype,
		kvBytesPerRow: kvBytesPerRow,
		queueDepth:    queueDepth,
		kvPages:       kvPages,
		prefixStats:   prefixStats,
		start:         time.Now(),
		now:           time.Now,
		perScheme:     make(map[string]int64),
		latencies:     newRing(latencyWindow),
		ttfts:         newRing(latencyWindow),
		fusedStepMs:   make(map[string]*obs.Histogram),
	}
}

// prefixMount records one prefix-cache consultation when a session enters
// (or re-enters) the batch: a hit skips skipped prefill positions.
func (m *Metrics) prefixMount(skipped int) {
	m.mu.Lock()
	if skipped > 0 {
		m.prefixHits++
		m.prefixSkipped += int64(skipped)
	} else {
		m.prefixMisses++
	}
	m.mu.Unlock()
}

func (m *Metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// drainReject records one request refused because the server was draining.
func (m *Metrics) drainReject() {
	m.mu.Lock()
	m.drainRejected++
	m.mu.Unlock()
}

// brownoutReject records one request shed by overload brownout.
func (m *Metrics) brownoutReject() {
	m.mu.Lock()
	m.brownoutShed++
	m.mu.Unlock()
}

// invalidReject records one request refused by submission validation.
func (m *Metrics) invalidReject() {
	m.mu.Lock()
	m.invalidRejected++
	m.mu.Unlock()
}

// internalError records one request failed by an isolated step panic.
func (m *Metrics) internalError() {
	m.mu.Lock()
	m.internalErrors++
	m.mu.Unlock()
}

func (m *Metrics) expire() {
	m.mu.Lock()
	m.expired++
	m.mu.Unlock()
}

// complete records one successful request. hasTTFT distinguishes "no
// first token was ever timed" from a genuinely zero-duration TTFT, so
// instantaneous first tokens are not silently dropped from the window.
func (m *Metrics) complete(latency, ttft time.Duration, hasTTFT bool) {
	m.mu.Lock()
	m.completed++
	m.latencies.push(float64(latency) / float64(time.Millisecond))
	m.latencyHist.Observe(latency)
	if hasTTFT && ttft >= 0 {
		m.ttfts.push(float64(ttft) / float64(time.Millisecond))
		m.ttftHist.Observe(ttft)
	}
	m.mu.Unlock()
}

// stages records one completed request's per-stage durations, derived
// from its lifecycle transition timestamps.
func (m *Metrics) stages(queueWait, hold, prefill, decode, preempted time.Duration) {
	m.mu.Lock()
	m.stageQueueWait.Observe(queueWait)
	if hold > 0 {
		m.stageHold.Observe(hold)
	}
	m.stagePrefill.Observe(prefill)
	m.stageDecode.Observe(decode)
	if preempted > 0 {
		m.stagePreempted.Observe(preempted)
	}
	m.mu.Unlock()
}

// fusedStep times one fused BatchStepper.Step of the given engine spec.
func (m *Metrics) fusedStep(scheme string, d time.Duration) {
	m.mu.Lock()
	h := m.fusedStepMs[scheme]
	if h == nil {
		h = &obs.Histogram{}
		m.fusedStepMs[scheme] = h
	}
	h.Observe(d)
	m.mu.Unlock()
}

func (m *Metrics) preempt() {
	m.mu.Lock()
	m.preemptions++
	m.mu.Unlock()
}

// idle zeroes the per-iteration gauges when the scheduler has no active
// batch, so an idle server does not keep reporting its last burst.
func (m *Metrics) idle() {
	m.mu.Lock()
	m.activeSessions = 0
	m.kvOccRows = 0
	m.mu.Unlock()
}

func (m *Metrics) iteration(batch int, prefill, decode, fused int64, perScheme map[string]int64, kvOccRows int64) {
	m.mu.Lock()
	m.iterations++
	m.batchOccupancy += int64(batch)
	m.activeSessions = int64(batch)
	if int64(batch) > m.peakActive {
		m.peakActive = int64(batch)
	}
	m.kvOccRows = kvOccRows
	if kvOccRows > m.kvPeakOccRows {
		m.kvPeakOccRows = kvOccRows
	}
	m.prefillTokens += prefill
	m.decodeTokens += decode
	m.fusedTokens += fused
	for scheme, n := range perScheme {
		m.perScheme[scheme] += n
	}
	if decode > 0 {
		sec := m.now().Unix()
		i := int(sec % int64(len(m.rate)))
		if m.rate[i].sec != sec {
			m.rate[i] = rateBucket{sec: sec}
		}
		m.rate[i].tokens += decode
	}
	m.mu.Unlock()
}

// windowedRate sums the decode tokens of the trailing rateWindowSecs
// seconds (including the current partial second) and divides by the
// window span, clamped to the uptime so a young server is not
// underreported. Caller holds mu.
func (m *Metrics) windowedRate(now time.Time, uptime float64) float64 {
	sec := now.Unix()
	var recent int64
	for _, b := range m.rate {
		if b.sec > sec-rateWindowSecs && b.sec <= sec {
			recent += b.tokens
		}
	}
	span := uptime
	if span > rateWindowSecs {
		span = rateWindowSecs
	}
	if span <= 0 {
		return 0
	}
	return float64(recent) / span
}

// Snapshot is a JSON-ready view of the metrics at one instant.
type Snapshot struct {
	DefaultScheme string  `json:"default_scheme"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Completed     int64   `json:"requests_completed"`
	Rejected      int64   `json:"requests_rejected"`
	// DrainRejected counts requests refused with ErrDraining after
	// BeginDrain — what a router sees while it takes a replica out of
	// rotation.
	DrainRejected int64 `json:"requests_drain_rejected"`
	// BrownoutShed counts requests shed with ErrOverloaded by admission
	// brownout (queue-wait or KV-occupancy threshold crossed).
	BrownoutShed int64 `json:"requests_brownout_shed"`
	// InvalidRejected counts requests refused by submission validation
	// (empty/oversize prompt, out-of-vocab token).
	InvalidRejected int64 `json:"requests_invalid_rejected"`
	// InternalErrors counts requests failed with ErrInternal by an
	// isolated scheduler-step panic.
	InternalErrors int64 `json:"internal_errors"`
	Expired        int64 `json:"requests_expired"`
	QueueDepth     int   `json:"queue_depth"`
	// ActiveSessions is the batch size of the last scheduler iteration;
	// PeakActiveSessions the largest batch ever run — with a paged KV
	// cache this is what the memory budget actually bought.
	ActiveSessions     int64 `json:"active_sessions"`
	PeakActiveSessions int64 `json:"peak_active_sessions"`
	// Preemptions counts requests evicted by KV pressure (pages freed,
	// request requeued; tokens are unaffected).
	Preemptions int64 `json:"preemptions"`
	// KV cache accounting, in positions (rows) and pool pages.
	// KVBudgetRows = 0 means unlimited.
	// KVDtype is the page storage format; byte figures are effective
	// storage (occupancy rows × the dtype's encoded bytes per row), the
	// numbers that show what a compressed dtype actually bought.
	KVDtype             string `json:"kv_dtype"`
	KVBytesPerRow       int    `json:"kv_bytes_per_row"`
	KVBudgetRows        int    `json:"kv_budget_rows"`
	KVPageRows          int    `json:"kv_page_rows"`
	KVOccupancyRows     int64  `json:"kv_occupancy_rows"`
	KVPeakOccupancyRows int64  `json:"kv_peak_occupancy_rows"`
	KVOccupancyBytes    int64  `json:"kv_occupancy_bytes"`
	KVPagesInUse        int64  `json:"kv_pages_in_use"`
	KVPageAllocs        int64  `json:"kv_page_allocs"`
	KVPageFrees         int64  `json:"kv_page_frees"`
	// Prefix-cache accounting (all zero with the cache off). Hits/misses
	// count sessions entering or re-entering the batch through a hosted
	// prefix index; PrefillTokensSkipped is the prefill work hits avoided.
	// Cached rows/pages are what the caches currently retain (rows are
	// positions, pages count every layer's K and V pages); Evictions
	// counts cached prefixes reclaimed under cap or pool pressure.
	PrefixHits           int64 `json:"prefix_hits"`
	PrefixMisses         int64 `json:"prefix_misses"`
	PrefillTokensSkipped int64 `json:"prefill_tokens_skipped"`
	PrefixCachedRows     int64 `json:"prefix_cached_rows"`
	PrefixSharedPages    int64 `json:"prefix_shared_pages"`
	PrefixCachedEntries  int64 `json:"prefix_cached_entries"`
	PrefixEvictions      int64 `json:"prefix_evictions"`
	PrefillTokens        int64 `json:"prefill_tokens"`
	DecodeTokens         int64 `json:"decode_tokens"`
	// FusedDecodeTokens counts the decode tokens produced by fused batched
	// passes (the rest came from prefill logits or row-coupled engines'
	// one-request decode steps).
	FusedDecodeTokens int64 `json:"fused_decode_tokens"`
	// TokensPerSec is the lifetime decode rate (decode tokens / uptime);
	// TokensPerSec10s averages over the trailing rateWindowSecs seconds,
	// the number to watch on a long-lived server.
	TokensPerSec    float64          `json:"decode_tokens_per_sec"`
	TokensPerSec10s float64          `json:"decode_tokens_per_sec_10s"`
	PerScheme       map[string]int64 `json:"decode_tokens_per_scheme"`
	Iterations      int64            `json:"iterations"`
	MeanBatchSize   float64          `json:"mean_batch_size"`
	LatencyP50Ms    float64          `json:"latency_p50_ms"`
	LatencyP95Ms    float64          `json:"latency_p95_ms"`
	LatencyP99Ms    float64          `json:"latency_p99_ms"`
	TTFTP50Ms       float64          `json:"ttft_p50_ms"`
	TTFTP99Ms       float64          `json:"ttft_p99_ms"`
	// Per-stage lifecycle timing (full-history log-bucket histograms; the
	// latency/TTFT quantiles above stay exact over their sample window).
	// QueueWait spans enqueue → admission (KV-hold time included);
	// AdmissionHold is the held-at-head-of-line slice of that wait (only
	// requests that were held are observed); Prefill spans admission →
	// first token; Decode spans first token → completion; Preempted is the
	// total time spent evicted (only preempted requests are observed).
	StageQueueWait     obs.HistogramSnapshot `json:"stage_queue_wait"`
	StageAdmissionHold obs.HistogramSnapshot `json:"stage_admission_hold"`
	StagePrefill       obs.HistogramSnapshot `json:"stage_prefill"`
	StageDecode        obs.HistogramSnapshot `json:"stage_decode"`
	StagePreempted     obs.HistogramSnapshot `json:"stage_preempted"`
	LatencyHist        obs.HistogramSnapshot `json:"latency_hist"`
	TTFTHist           obs.HistogramSnapshot `json:"ttft_hist"`
	// FusedStep times each fused batched decode forward pass, per engine
	// spec (empty until a fused step runs).
	FusedStep map[string]obs.HistogramSnapshot `json:"fused_step_per_scheme"`
}

// Snapshot computes quantiles and rates over the current window.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	up := now.Sub(m.start).Seconds()
	s := Snapshot{
		DefaultScheme:       m.defaultScheme,
		UptimeSeconds:       up,
		Completed:           m.completed,
		Rejected:            m.rejected,
		DrainRejected:       m.drainRejected,
		BrownoutShed:        m.brownoutShed,
		InvalidRejected:     m.invalidRejected,
		InternalErrors:      m.internalErrors,
		Expired:             m.expired,
		ActiveSessions:      m.activeSessions,
		PeakActiveSessions:  m.peakActive,
		Preemptions:         m.preemptions,
		KVDtype:             m.kvDtype,
		KVBytesPerRow:       m.kvBytesPerRow,
		KVBudgetRows:        m.kvBudgetRows,
		KVPageRows:          m.kvPageRows,
		KVOccupancyRows:     m.kvOccRows,
		KVPeakOccupancyRows: m.kvPeakOccRows,
		KVOccupancyBytes:    m.kvOccRows * int64(m.kvBytesPerRow),
		PrefillTokens:       m.prefillTokens,
		DecodeTokens:        m.decodeTokens,
		FusedDecodeTokens:   m.fusedTokens,
		PerScheme:           make(map[string]int64, len(m.perScheme)),
		Iterations:          m.iterations,
	}
	if m.queueDepth != nil {
		s.QueueDepth = m.queueDepth()
	}
	if m.kvPages != nil {
		s.KVPagesInUse, s.KVPageAllocs, s.KVPageFrees = m.kvPages()
	}
	s.PrefixHits = m.prefixHits
	s.PrefixMisses = m.prefixMisses
	s.PrefillTokensSkipped = m.prefixSkipped
	if m.prefixStats != nil {
		s.PrefixCachedRows, s.PrefixSharedPages, s.PrefixCachedEntries, s.PrefixEvictions = m.prefixStats()
	}
	for k, v := range m.perScheme {
		s.PerScheme[k] = v
	}
	if up > 0 {
		s.TokensPerSec = float64(m.decodeTokens) / up
	}
	s.TokensPerSec10s = m.windowedRate(now, up)
	if m.iterations > 0 {
		s.MeanBatchSize = float64(m.batchOccupancy) / float64(m.iterations)
	}
	lat := m.latencies.samples()
	s.LatencyP50Ms = quantile(lat, 0.50)
	s.LatencyP95Ms = quantile(lat, 0.95)
	s.LatencyP99Ms = quantile(lat, 0.99)
	tt := m.ttfts.samples()
	s.TTFTP50Ms = quantile(tt, 0.50)
	s.TTFTP99Ms = quantile(tt, 0.99)
	s.StageQueueWait = m.stageQueueWait.Snapshot()
	s.StageAdmissionHold = m.stageHold.Snapshot()
	s.StagePrefill = m.stagePrefill.Snapshot()
	s.StageDecode = m.stageDecode.Snapshot()
	s.StagePreempted = m.stagePreempted.Snapshot()
	s.LatencyHist = m.latencyHist.Snapshot()
	s.TTFTHist = m.ttftHist.Snapshot()
	s.FusedStep = make(map[string]obs.HistogramSnapshot, len(m.fusedStepMs))
	for k, h := range m.fusedStepMs {
		s.FusedStep[k] = h.Snapshot()
	}
	return s
}

// WritePrometheus renders the current snapshot in Prometheus text
// exposition format: every Snapshot field as a counter or gauge, the
// per-stage and end-to-end histograms as labeled histogram families.
// Family and label order is fixed, so the exposition is stable across
// calls (map-keyed families iterate in sorted key order).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	p := obs.NewPromWriter(w)
	writeSnapshotProm(p, s)
	return p.Flush()
}

func writeSnapshotProm(p *obs.PromWriter, s Snapshot) {
	p.Gauge("tender_server_info", "Server identity (value is always 1).", 1,
		obs.Label{Name: "default_scheme", Value: s.DefaultScheme})
	p.Gauge("tender_uptime_seconds", "Seconds since the server started.", s.UptimeSeconds)
	p.Counter("tender_requests_completed_total", "Requests finished successfully.", float64(s.Completed))
	p.Counter("tender_requests_rejected_total", "Requests refused by the bounded admission queue.", float64(s.Rejected))
	p.Counter("tender_requests_drain_rejected_total", "Requests refused while the server drained.", float64(s.DrainRejected))
	p.Counter("tender_requests_brownout_shed_total", "Requests shed by overload brownout.", float64(s.BrownoutShed))
	p.Counter("tender_requests_invalid_rejected_total", "Requests refused by submission validation.", float64(s.InvalidRejected))
	p.Counter("tender_internal_errors_total", "Requests failed by an isolated step panic.", float64(s.InternalErrors))
	p.Counter("tender_requests_expired_total", "Requests failed by deadline.", float64(s.Expired))
	p.Gauge("tender_queue_depth", "Requests queued, held, or preempted.", float64(s.QueueDepth))
	p.Gauge("tender_active_sessions", "Batch size of the last scheduler iteration.", float64(s.ActiveSessions))
	p.Gauge("tender_peak_active_sessions", "Largest batch ever run.", float64(s.PeakActiveSessions))
	p.Counter("tender_preemptions_total", "Requests evicted by KV pressure.", float64(s.Preemptions))
	p.Gauge("tender_kv_budget_rows", "Total KV position budget (0 = unlimited).", float64(s.KVBudgetRows))
	p.Gauge("tender_kv_page_rows", "KV page granularity in positions.", float64(s.KVPageRows))
	p.Gauge("tender_kv_bytes_per_row", "Encoded bytes per KV position per layer side (dtype "+s.KVDtype+").", float64(s.KVBytesPerRow))
	p.Gauge("tender_kv_occupancy_bytes", "Effective bytes of encoded KV rows held by live sessions.", float64(s.KVOccupancyBytes))
	p.Gauge("tender_kv_occupancy_rows", "KV positions held by active sessions.", float64(s.KVOccupancyRows))
	p.Gauge("tender_kv_peak_occupancy_rows", "Peak KV positions ever held.", float64(s.KVPeakOccupancyRows))
	p.Gauge("tender_kv_pages_in_use", "Pages checked out of the shared block pool.", float64(s.KVPagesInUse))
	p.Counter("tender_kv_page_allocs_total", "Cumulative pool page acquisitions.", float64(s.KVPageAllocs))
	p.Counter("tender_kv_page_frees_total", "Cumulative pool page releases.", float64(s.KVPageFrees))
	p.Counter("tender_prefix_hits_total", "Batch entries that mounted a cached prefix.", float64(s.PrefixHits))
	p.Counter("tender_prefix_misses_total", "Batch entries that cold-prefilled.", float64(s.PrefixMisses))
	p.Counter("tender_prefill_tokens_skipped_total", "Prefill positions served from cached prefixes.", float64(s.PrefillTokensSkipped))
	p.Gauge("tender_prefix_cached_rows", "KV positions retained by cached prefixes.", float64(s.PrefixCachedRows))
	p.Gauge("tender_prefix_shared_pages", "Pool pages held by cached prefixes.", float64(s.PrefixSharedPages))
	p.Gauge("tender_prefix_cached_entries", "Cached prefix entries.", float64(s.PrefixCachedEntries))
	p.Counter("tender_prefix_evictions_total", "Cached prefixes reclaimed under pressure.", float64(s.PrefixEvictions))
	p.Counter("tender_prefill_tokens_total", "Prompt tokens prefilled.", float64(s.PrefillTokens))
	p.Counter("tender_decode_tokens_total", "Decode tokens emitted.", float64(s.DecodeTokens))
	p.Counter("tender_fused_decode_tokens_total", "Decode tokens from fused batched passes.", float64(s.FusedDecodeTokens))
	for _, scheme := range sortedKeys(s.PerScheme) {
		p.Counter("tender_decode_tokens_per_scheme_total", "Decode tokens by engine spec.",
			float64(s.PerScheme[scheme]), obs.Label{Name: "scheme", Value: scheme})
	}
	p.Gauge("tender_decode_tokens_per_sec", "Lifetime decode throughput.", s.TokensPerSec)
	p.Gauge("tender_decode_tokens_per_sec_10s", "Decode throughput over the trailing 10 s.", s.TokensPerSec10s)
	p.Counter("tender_iterations_total", "Scheduler iterations run.", float64(s.Iterations))
	p.Gauge("tender_mean_batch_size", "Mean batch size across iterations.", s.MeanBatchSize)
	p.Gauge("tender_latency_window_p50_ms", "Exact windowed latency p50.", s.LatencyP50Ms)
	p.Gauge("tender_latency_window_p95_ms", "Exact windowed latency p95.", s.LatencyP95Ms)
	p.Gauge("tender_latency_window_p99_ms", "Exact windowed latency p99.", s.LatencyP99Ms)
	p.Gauge("tender_ttft_window_p50_ms", "Exact windowed TTFT p50.", s.TTFTP50Ms)
	p.Gauge("tender_ttft_window_p99_ms", "Exact windowed TTFT p99.", s.TTFTP99Ms)
	p.Histogram("tender_latency_seconds", "End-to-end request latency.", s.LatencyHist)
	p.Histogram("tender_ttft_seconds", "Time to first token.", s.TTFTHist)
	for _, st := range []struct {
		stage string
		snap  obs.HistogramSnapshot
	}{
		{"queue_wait", s.StageQueueWait},
		{"admission_hold", s.StageAdmissionHold},
		{"prefill", s.StagePrefill},
		{"decode", s.StageDecode},
		{"preempted", s.StagePreempted},
	} {
		p.Histogram("tender_stage_seconds", "Per-stage request lifecycle time.",
			st.snap, obs.Label{Name: "stage", Value: st.stage})
	}
	for _, scheme := range sortedHistKeys(s.FusedStep) {
		p.Histogram("tender_fused_step_seconds", "Fused batched decode forward-pass time.",
			s.FusedStep[scheme], obs.Label{Name: "scheme", Value: scheme})
	}
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedHistKeys(m map[string]obs.HistogramSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
