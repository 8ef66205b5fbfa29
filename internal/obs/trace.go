package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind is the event type of one request-lifecycle state transition.
type Kind uint8

const (
	// KindEnqueue: a request entered the admission queue.
	// A = prompt tokens, B = max new tokens.
	KindEnqueue Kind = iota
	// KindReject: the bounded queue refused the request. A = reason.
	KindReject
	// KindAdmit: the request entered the iteration batch.
	// A = KV rows reserved, B = prefix rows skipped (cache hit).
	KindAdmit
	// KindPrefillStart: the request's first prefill chunk ran.
	// A = tokens pending prefill.
	KindPrefillStart
	// KindPrefillEnd: the request's pending sequence is fully prefilled.
	// A = tokens prefilled.
	KindPrefillEnd
	// KindDecode: the request emitted one decode token this iteration.
	// A = tokens emitted so far, B = 1 if the step was fused.
	KindDecode
	// KindPreempt: the scheduler evicted the request (pages freed,
	// request requeued). A = reason, B = tokens emitted so far.
	KindPreempt
	// KindResume: a preempted request re-entered the batch.
	// A = KV rows reserved, B = prefix rows skipped.
	KindResume
	// KindComplete: the request finished successfully. A = tokens emitted.
	KindComplete
	// KindExpire: the request failed by deadline. A = reason,
	// B = tokens emitted before expiry.
	KindExpire
	// KindCancel: the request failed for another reason (context
	// cancellation, server shutdown). A = reason, B = tokens emitted.
	KindCancel
	// KindIteration: one scheduler iteration ran (Req is 0).
	// A = batch size, B = iteration wall-clock in nanoseconds.
	KindIteration
)

var kindNames = [...]string{
	KindEnqueue:      "enqueue",
	KindReject:       "reject",
	KindAdmit:        "admit",
	KindPrefillStart: "prefill_start",
	KindPrefillEnd:   "prefill_end",
	KindDecode:       "decode",
	KindPreempt:      "preempt",
	KindResume:       "resume",
	KindComplete:     "complete",
	KindExpire:       "expire",
	KindCancel:       "cancel",
	KindIteration:    "iteration",
}

// String returns the stable lowercase event name used by both exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// argNames maps each kind's A/B payload to the JSONL field names; "" means
// the slot is unused and omitted.
var argNames = [...][2]string{
	KindEnqueue:      {"prompt_tokens", "max_new_tokens"},
	KindReject:       {"reason", ""},
	KindAdmit:        {"kv_rows_needed", "prefix_rows_skipped"},
	KindPrefillStart: {"pending_tokens", ""},
	KindPrefillEnd:   {"prefilled_tokens", ""},
	KindDecode:       {"tokens_out", "fused"},
	KindPreempt:      {"reason", "tokens_out"},
	KindResume:       {"kv_rows_needed", "prefix_rows_skipped"},
	KindComplete:     {"tokens_out", ""},
	KindExpire:       {"reason", "tokens_out"},
	KindCancel:       {"reason", "tokens_out"},
	KindIteration:    {"batch", "duration_ns"},
}

// Reason codes carried in the A slot of reject/preempt/expire/cancel
// events.
const (
	ReasonNone int64 = iota
	// ReasonKVPressure: preempted because the KV page pool ran dry.
	ReasonKVPressure
	// ReasonDeadline: the request's deadline passed.
	ReasonDeadline
	// ReasonCanceled: the request's context was cancelled.
	ReasonCanceled
	// ReasonStopped: the server shut down with the request in flight.
	ReasonStopped
	// ReasonQueueFull: the bounded admission queue was full.
	ReasonQueueFull
	// ReasonDraining: the server was draining and refused the new request.
	ReasonDraining
	// ReasonOverload: admission shed the request under brownout — queue
	// wait or KV occupancy crossed the configured threshold.
	ReasonOverload
	// ReasonInternal: a scheduler step panicked; the request failed with
	// ErrInternal while the rest of the batch kept running.
	ReasonInternal
)

var reasonNames = [...]string{
	ReasonNone:       "",
	ReasonKVPressure: "kv_pressure",
	ReasonDeadline:   "deadline",
	ReasonCanceled:   "canceled",
	ReasonStopped:    "stopped",
	ReasonQueueFull:  "queue_full",
	ReasonDraining:   "draining",
	ReasonOverload:   "overload",
	ReasonInternal:   "internal",
}

// ReasonString names a reason code ("" for ReasonNone or out of range).
func ReasonString(r int64) string {
	if r >= 0 && int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", r)
}

// Event is one fixed-size lifecycle record. TS is monotonic time since
// the tracer was created; Req is the request id (0 for scheduler-scoped
// events); Iter is the scheduler iteration the event belongs to (0 for
// events outside the loop, e.g. enqueue); A and B are kind-specific
// payloads (see the Kind constants).
type Event struct {
	TS   time.Duration
	Kind Kind
	Req  uint64
	Iter int64
	A, B int64
}

// Tracer records Events into a bounded ring. The zero-capacity and nil
// tracers are both valid and record nothing; a nil tracer's methods are
// all nil-check cheap, which is what lets the scheduler call Record
// unconditionally.
type Tracer struct {
	start time.Time

	mu    sync.Mutex
	buf   []Event
	next  int   // index of the next write
	total int64 // events ever recorded (total - len(buf) = dropped when wrapped)
}

// NewTracer returns a tracer retaining the most recent capacity events
// (capacity <= 0 defaults to 65536). Memory is allocated once, up front.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 65536
	}
	return &Tracer{start: time.Now(), buf: make([]Event, 0, capacity)}
}

// Enabled reports whether events will actually be retained. Safe for
// concurrent use with Record, which rewrites the ring's slice header.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.buf) > 0
}

// Record appends one event, overwriting the oldest when the ring is full.
// Safe for concurrent use; a no-op on a nil tracer.
func (t *Tracer) Record(kind Kind, req uint64, iter, a, b int64) {
	if t == nil {
		return
	}
	ts := time.Since(t.start)
	t.mu.Lock()
	t.total++
	e := Event{TS: ts, Kind: kind, Req: req, Iter: iter, A: a, B: b}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else if cap(t.buf) > 0 {
		t.buf[t.next] = e
		t.next++
		if t.next == len(t.buf) {
			t.next = 0
		}
	}
	t.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.total > int64(len(t.buf)) { // wrapped: next is the oldest
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if d := t.total - int64(len(t.buf)); d > 0 && t.total > int64(cap(t.buf)) {
		return d
	}
	return 0
}

// WriteJSONL writes the retained events as one JSON object per line,
// oldest first. Kind-specific payloads get named fields (see argNames);
// reason codes are rendered as strings.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		obj := map[string]any{
			"ts_us": float64(e.TS) / float64(time.Microsecond),
			"kind":  e.Kind.String(),
		}
		if e.Req != 0 {
			obj["req"] = e.Req
		}
		if e.Iter != 0 {
			obj["iter"] = e.Iter
		}
		names := [2]string{}
		if int(e.Kind) < len(argNames) {
			names = argNames[e.Kind]
		}
		for i, v := range [2]int64{e.A, e.B} {
			if names[i] == "" {
				continue
			}
			if names[i] == "reason" {
				obj["reason"] = ReasonString(v)
			} else {
				obj[names[i]] = v
			}
		}
		blob, err := json.Marshal(obj)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(blob, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one trace_event record; ts/dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
}

// Chrome-trace process ids: one synthetic process for the scheduler, one
// for the request tracks (tid = request id).
const (
	chromePIDScheduler = 1
	chromePIDRequests  = 2
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChromeTrace renders the retained events as Chrome trace_event JSON
// loadable in Perfetto: one track per request carrying its
// queued/prefill/decode/preempted spans and terminal instant, one track
// of scheduler-iteration spans, and a batch-size counter. Spans are
// reconstructed from the transition events, so a request whose early
// events were dropped by ring wrap-around starts at its first retained
// transition.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: chromePIDScheduler,
			Args: map[string]any{"name": "scheduler"}},
		{Name: "process_name", Ph: "M", PID: chromePIDRequests,
			Args: map[string]any{"name": "requests"}},
	}
	// Per-request open span state: name + start of the phase in progress.
	type openSpan struct {
		name  string
		start time.Duration
	}
	open := map[uint64]openSpan{}
	closeSpan := func(req uint64, at time.Duration) {
		sp, ok := open[req]
		if !ok {
			return
		}
		delete(open, req)
		out = append(out, chromeEvent{
			Name: sp.name, Ph: "X", TS: us(sp.start), Dur: us(at - sp.start),
			PID: chromePIDRequests, TID: int64(req),
		})
	}
	transition := func(req uint64, at time.Duration, name string) {
		closeSpan(req, at)
		open[req] = openSpan{name: name, start: at}
	}
	instant := func(e Event, name string, args map[string]any) {
		out = append(out, chromeEvent{
			Name: name, Ph: "i", TS: us(e.TS), S: "t",
			PID: chromePIDRequests, TID: int64(e.Req), Args: args,
		})
	}
	var last time.Duration
	for _, e := range events {
		if e.TS > last {
			last = e.TS
		}
		switch e.Kind {
		case KindEnqueue:
			transition(e.Req, e.TS, "queued")
		case KindReject:
			closeSpan(e.Req, e.TS)
			instant(e, "reject", map[string]any{"reason": ReasonString(e.A)})
		case KindAdmit, KindResume:
			name := "prefill"
			if e.Kind == KindResume {
				name = "re-prefill"
			}
			transition(e.Req, e.TS, name)
		case KindPrefillEnd:
			transition(e.Req, e.TS, "decode")
		case KindPreempt:
			transition(e.Req, e.TS, "preempted")
			instant(e, "preempt", map[string]any{
				"reason": ReasonString(e.A), "tokens_out": e.B,
			})
		case KindComplete:
			closeSpan(e.Req, e.TS)
			instant(e, "complete", map[string]any{"tokens_out": e.A})
		case KindExpire:
			closeSpan(e.Req, e.TS)
			instant(e, "expire", map[string]any{"tokens_out": e.B})
		case KindCancel:
			closeSpan(e.Req, e.TS)
			instant(e, "cancel", map[string]any{
				"reason": ReasonString(e.A), "tokens_out": e.B,
			})
		case KindIteration:
			dur := time.Duration(e.B)
			start := e.TS - dur
			if start < 0 {
				start = 0
			}
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("iteration %d", e.Iter), Ph: "X",
				TS: us(start), Dur: us(dur),
				PID: chromePIDScheduler, TID: 1,
				Args: map[string]any{"batch": e.A},
			})
			out = append(out, chromeEvent{
				Name: "batch_size", Ph: "C", TS: us(e.TS),
				PID: chromePIDScheduler, TID: 0,
				Args: map[string]any{"batch": e.A},
			})
		}
	}
	// Close any span still open (in-flight requests at export time) at the
	// last observed timestamp so the track is visible.
	for req := range open {
		closeSpan(req, last)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}
