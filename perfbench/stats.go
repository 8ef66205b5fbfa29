package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer outliers moves with every run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether the
// sample supports it, i.e. at least minBeyond samples lie above its rank.
// p90 therefore needs 100 samples and p50 needs 20.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return s[rank], n-1-rank >= minBeyond
}

// median is the middle of xs (mean of the middle two for even lengths),
// for small sets of repeated whole measurements such as set-up times.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// httpTTFT is the client-side time to first token of an HTTP request:
// the round trip minus the part of the server's latency that came after
// its first token, so time spent in the edge (HTTP, JSON, routing) counts
// toward the first token.
func httpTTFT(rttMs, serverLatencyMs, serverTTFTMs float64) float64 {
	return rttMs - (serverLatencyMs - serverTTFTMs)
}

// tpot is the mean time per output token after the first. A request that
// produced a single token has no such gap and is left out (ok=false), not
// counted as zero.
func tpot(latencyMs, ttftMs float64, tokens int) (float64, bool) {
	if tokens < 2 {
		return 0, false
	}
	return (latencyMs - ttftMs) / float64(tokens-1), true
}

// outcome is one attempted request as the client saw it.
type outcome struct {
	idx       int
	start     time.Time // submitted
	end       time.Time // answer received
	ttftMs    float64   // client-side time to first token
	tokens    []int
	promptLen int
	edgeMs    float64 // HTTP only: round trip minus the server's latency
	err       error
}

func (o *outcome) latencyMs() float64 { return float64(o.end.Sub(o.start)) / 1e6 }

// slo is a workload's user-facing latency target.
type slo struct {
	ttftMs, tpotMs float64
}

// meets reports whether a successful request met both limits; a
// single-token request has no TPOT and is judged on TTFT alone.
func (s slo) meets(o *outcome) bool {
	if o.err != nil || o.ttftMs > s.ttftMs {
		return false
	}
	t, ok := tpot(o.latencyMs(), o.ttftMs, len(o.tokens))
	return !ok || t <= s.tpotMs
}

// sloOKFrac is the share of attempted requests that met both limits; a
// failed request counts as a miss.
func sloOKFrac(outs []outcome, s slo) float64 {
	if len(outs) == 0 {
		return 0
	}
	ok := 0
	for i := range outs {
		if s.meets(&outs[i]) {
			ok++
		}
	}
	return float64(ok) / float64(len(outs))
}

// overlap is the length of [a0,a1] ∩ [b0,b1].
func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	lo, hi := a0, a1
	if b0.After(lo) {
		lo = b0
	}
	if b1.Before(hi) {
		hi = b1
	}
	if hi.Before(lo) {
		return 0
	}
	return hi.Sub(lo)
}

// spread prorates n units of work done uniformly over [from,to] into the
// window [w0,w1]; work of zero duration counts if it falls inside.
func spread(n float64, from, to, w0, w1 time.Time) float64 {
	if !to.After(from) {
		if !from.Before(w0) && !from.After(w1) {
			return n
		}
		return 0
	}
	return n * float64(overlap(from, to, w0, w1)) / float64(to.Sub(from))
}

// windowTokens counts the tokens served inside [w0,w1]. Each request's
// prompt is taken as processed evenly between submission and its first
// token, its first output token at that instant, and its other output
// tokens evenly up to its end. Prorating makes the rate independent of
// where request boundaries fall relative to the window.
func windowTokens(outs []outcome, w0, w1 time.Time) (prompt, decode float64) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || len(o.tokens) == 0 {
			continue
		}
		first := o.start.Add(time.Duration(o.ttftMs * 1e6))
		prompt += spread(float64(o.promptLen), o.start, first, w0, w1)
		decode += spread(1, first, first, w0, w1)
		decode += spread(float64(len(o.tokens)-1), first, o.end, w0, w1)
	}
	return prompt, decode
}
