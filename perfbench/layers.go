package main

import (
	"runtime"
	"time"

	"tender/internal/router"
	"tender/internal/serve"
)

// addServeLayers reports the serve, tensor and model counters of one or
// more replica snapshots. Sums are over replicas; stage medians are the
// replicas' medians weighted by their sample counts.
func addServeLayers(l metrics, snaps []serve.Snapshot) {
	var (
		iters, batchSum, decode, fused, prefill, skipped float64
		hits, misses, evictions, preempt, peakRows       float64
		allocs, stepSum, stepN, stepP50                  float64
		qwN, qwP50, pfN, pfP50                           float64
	)
	for _, s := range snaps {
		iters += float64(s.Iterations)
		batchSum += s.MeanBatchSize * float64(s.Iterations)
		decode += float64(s.DecodeTokens)
		fused += float64(s.FusedDecodeTokens)
		prefill += float64(s.PrefillTokens)
		skipped += float64(s.PrefillTokensSkipped)
		hits += float64(s.PrefixHits)
		misses += float64(s.PrefixMisses)
		evictions += float64(s.PrefixEvictions)
		preempt += float64(s.Preemptions)
		peakRows += float64(s.KVPeakOccupancyRows)
		allocs += float64(s.KVPageAllocs)
		qwN += float64(s.StageQueueWait.Count)
		qwP50 += s.StageQueueWait.P50Ms * float64(s.StageQueueWait.Count)
		pfN += float64(s.StagePrefill.Count)
		pfP50 += s.StagePrefill.P50Ms * float64(s.StagePrefill.Count)
		for _, h := range s.FusedStep {
			stepSum += h.SumMs
			stepN += float64(h.Count)
			stepP50 += h.P50Ms * float64(h.Count)
		}
	}
	l.set("serve.queue_wait_ms_p50", frac(qwP50, qwN), "ms")
	l.set("serve.prefill_ms_p50", frac(pfP50, pfN), "ms")
	l.set("serve.mean_batch", frac(batchSum, iters), "requests")
	l.set("serve.fused_frac", frac(fused, decode), "frac")
	l.set("serve.prefix_hit_frac", frac(hits, hits+misses), "frac")
	l.set("serve.prefill_skipped_frac", frac(skipped, prefill+skipped), "frac")
	l.set("serve.prefix_evictions", evictions, "count")
	l.set("serve.preemptions", preempt, "count")
	l.set("tensor.kv_peak_rows", peakRows, "rows")
	l.set("tensor.kv_page_allocs_per_tok", frac(allocs, prefill+decode), "pages/tok")
	l.set("model.fused_step_ms_p50", frac(stepP50, stepN), "ms")
	l.set("model.fused_step_s", stepSum/1e3, "s")
}

// addKernelLayers reports the per-site kernel counters of the traced run.
// busy_frac is kernel time over the core time of the run.
func addKernelLayers(l metrics, ks *kernelStats, busy, wall time.Duration) {
	for _, sk := range siteKinds {
		var s siteStats
		if ks != nil && ks.sites[sk.kind] != nil {
			s = *ks.sites[sk.kind]
		}
		p := "kernel." + sk.name
		l.set(p+".calls", float64(s.calls), "count")
		l.set(p+".rows", float64(s.rows), "rows")
		l.set(p+".busy_s", s.busy.Seconds(), "s")
		l.set(p+".gmacs", s.macs/1e9, "GMAC")
		l.set(p+".mb_moved", s.bytes/1e6, "MB")
	}
	l.set("kernel.busy_frac", frac(busy.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac")
}

// addEdgeLayers reports the HTTP edge and router figures; both are zero
// for the in-process workloads, which have neither.
func addEdgeLayers(l metrics, ws windowStats, rs *router.Snapshot) {
	l.set("tenderserve.edge_ms_p50", ws.edgeP50, "ms")
	l.set("tenderserve.edge_ms_p90", ws.edgeP90, "ms")
	var aff, spill, failovers, requests float64
	if rs != nil {
		requests, failovers = float64(rs.Requests), float64(rs.Failovers)
		for _, r := range rs.Replicas {
			aff += float64(r.RoutedAffinity)
			spill += float64(r.RoutedSpill)
		}
	}
	l.set("router.affinity_frac", frac(aff, requests), "frac")
	l.set("router.spill_frac", frac(spill, requests), "frac")
	l.set("router.failovers", failovers, "count")
}
