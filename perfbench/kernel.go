package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"tender/internal/model"
	"tender/internal/tensor"
)

// siteKinds lists the matmul site classes in per-layer metric order, with
// the metric name of each.
var siteKinds = []struct {
	kind model.SiteKind
	name string
}{
	{model.KindQ, "q"}, {model.KindK, "k"}, {model.KindV, "v"}, {model.KindOut, "out"},
	{model.KindFC1, "fc1"}, {model.KindFC2, "fc2"}, {model.KindScore, "score"}, {model.KindValue, "value"},
}

// siteStats accumulates the calls to one site class. Operation counts and
// bytes are computed from operand shapes, not measured.
type siteStats struct {
	calls, rows int64
	busy        time.Duration
	macs, bytes float64
}

// kernelStats collects the traced run's per-site kernel timing.
type kernelStats struct {
	// weightBytes is the stored size of one weight element at the
	// weight-matmul sites (1 for 8-bit packed weights); activations and
	// both operands of the activation-activation sites are float64.
	weightBytes float64

	mu    sync.Mutex
	sites map[model.SiteKind]*siteStats
	// fusedBusy is the kernel time spent inside fused batched decode
	// steps, which the fused-step histogram also covers.
	fusedBusy time.Duration

	// callers caches, per return address, whether it belongs to
	// BatchStepper (fused decode), to another model path, or to neither.
	callers sync.Map
}

func newKernelStats(weightBytes float64) *kernelStats {
	return &kernelStats{weightBytes: weightBytes, sites: make(map[model.SiteKind]*siteStats)}
}

const (
	callerOther = iota
	callerFused
	callerModel
)

// fusedCaller reports whether the matmul being timed was called from the
// fused decode stepper, by looking for the first model-package frame on
// the stack. Each return address is resolved once.
func (k *kernelStats) fusedCaller() bool {
	var pcs [12]uintptr
	n := runtime.Callers(3, pcs[:])
	for _, pc := range pcs[:n] {
		c, ok := k.callers.Load(pc)
		if !ok {
			c = classify(pc)
			k.callers.Store(pc, c)
		}
		switch c.(int) {
		case callerFused:
			return true
		case callerModel:
			return false
		}
	}
	return false
}

func classify(pc uintptr) int {
	frames := runtime.CallersFrames([]uintptr{pc})
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "tender/internal/model.") {
			if strings.Contains(f.Function, "(*BatchStepper)") {
				return callerFused
			}
			return callerModel
		}
		if !more {
			return callerOther
		}
	}
}

func (k *kernelStats) record(site model.Site, x, w *tensor.Matrix, d time.Duration, fused bool) {
	wb := k.weightBytes
	if site.Kind.IsActAct() {
		wb = 8
	}
	m, kk, n := float64(x.Rows), float64(x.Cols), float64(w.Cols)
	k.mu.Lock()
	defer k.mu.Unlock()
	s := k.sites[site.Kind]
	if s == nil {
		s = &siteStats{}
		k.sites[site.Kind] = s
	}
	s.calls++
	s.rows += int64(x.Rows)
	s.busy += d
	s.macs += m * kk * n
	s.bytes += 8*m*kk + wb*kk*n + 8*m*n
	if fused {
		k.fusedBusy += d
	}
}

// totals returns the summed kernel time and the part inside fused steps.
func (k *kernelStats) totals() (busy, fused time.Duration) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, s := range k.sites {
		busy += s.busy
	}
	return busy, k.fusedBusy
}

// timed is the timing decorator around an engine's MatMul.
type timed struct {
	inner model.Engine
	st    *kernelStats
}

func (t *timed) MatMul(site model.Site, x, w *tensor.Matrix) *tensor.Matrix {
	fused := t.st.fusedCaller()
	start := time.Now()
	out := t.inner.MatMul(site, x, w)
	t.st.record(site, x, w, time.Since(start), fused)
	return out
}

// timedInto times MatMulInto for engines that have it.
type timedInto struct {
	t  *timed
	in model.EngineInto
}

func (p timedInto) MatMulInto(site model.Site, x, w, out *tensor.Matrix) {
	fused := p.t.st.fusedCaller()
	start := time.Now()
	p.in.MatMulInto(site, x, w, out)
	p.t.st.record(site, x, w, time.Since(start), fused)
}

type rowIndependent interface {
	RowIndependentMatMul(model.Site) bool
}

type exactActAct interface{ ExactActAct() bool }

// wrapEngine returns e behind the timing decorator with exactly e's
// optional capabilities: MatMulInto (model.EngineInto), row independence
// (model.RowIndependentEngine) and exact attention matmuls. Dropping one
// would silently move decode onto another path, and the traced run would
// measure a different program; adding one would do the same.
func wrapEngine(e model.Engine, st *kernelStats) model.Engine {
	t := &timed{inner: e, st: st}
	in, isInto := e.(model.EngineInto)
	ri, isRI := e.(rowIndependent)
	ex, isEx := e.(exactActAct)
	ti := timedInto{t, in}
	switch {
	case isInto && isRI && isEx:
		return struct {
			*timed
			timedInto
			rowIndependent
			exactActAct
		}{t, ti, ri, ex}
	case isInto && isRI:
		return struct {
			*timed
			timedInto
			rowIndependent
		}{t, ti, ri}
	case isInto && isEx:
		return struct {
			*timed
			timedInto
			exactActAct
		}{t, ti, ex}
	case isInto:
		return struct {
			*timed
			timedInto
		}{t, ti}
	case isRI && isEx:
		return struct {
			*timed
			rowIndependent
			exactActAct
		}{t, ri, ex}
	case isRI:
		return struct {
			*timed
			rowIndependent
		}{t, ri}
	case isEx:
		return struct {
			*timed
			exactActAct
		}{t, ex}
	default:
		return t
	}
}

// checkForwarding fails when the wrapper's capabilities differ from the
// engine's.
func checkForwarding(e, w model.Engine) error {
	_, a1 := e.(model.EngineInto)
	_, a2 := w.(model.EngineInto)
	_, b1 := e.(rowIndependent)
	_, b2 := w.(rowIndependent)
	_, c1 := e.(exactActAct)
	_, c2 := w.(exactActAct)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		return fmt.Errorf("timing wrapper changed engine capabilities: into %v→%v, row-independent %v→%v, exact act-act %v→%v",
			a1, a2, b1, b2, c1, c2)
	}
	return nil
}
