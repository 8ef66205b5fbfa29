package router

import (
	"io"
	"sort"
	"time"

	"tender/internal/obs"
	"tender/internal/serve"
)

// ReplicaStatus is one replica's routing accounting in a Snapshot.
type ReplicaStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// InFlight is the router-side count of submitted-not-returned
	// requests on this replica.
	InFlight int64 `json:"inflight"`
	// Routed* count requests sent here by decision reason: the ring said
	// so (affinity), residual-load spill, scatter, or
	// failover after another replica refused.
	RoutedAffinity int64 `json:"routed_affinity"`
	RoutedSpill    int64 `json:"routed_spill"`
	RoutedScatter  int64 `json:"routed_scatter"`
	RoutedFailover int64 `json:"routed_failover"`
	Completed      int64 `json:"completed"`
	Errored        int64 `json:"errored"`
	// Breaker is the circuit-breaker position ("closed", "open",
	// "half-open"; always "closed" with the breaker disabled), and
	// BreakerTrips counts how often it opened.
	Breaker      string `json:"breaker"`
	BreakerTrips int64  `json:"breaker_trips"`
	// Serve carries the replica's own metrics snapshot when reachable.
	Serve *serve.Snapshot `json:"serve,omitempty"`
}

// Snapshot is the router's aggregate view: totals plus per-replica
// routing counters and (when reachable) each replica's serve metrics.
type Snapshot struct {
	Policy    string          `json:"policy"`
	Requests  int64           `json:"requests"`
	Failovers int64           `json:"failovers"`
	Rejected  int64           `json:"rejected"`
	Replicas  []ReplicaStatus `json:"replicas"`
}

// Snapshot captures the router's current routing state. Per-replica
// serve snapshots are read through the bounded-staleness cache, so this
// is cheap enough to serve on every /v1/metrics hit.
func (r *Router) Snapshot() Snapshot {
	r.mu.Lock()
	reps := append([]*replica(nil), r.replicas...)
	states := make([]State, len(reps))
	for i, rep := range reps {
		states[i] = rep.state
	}
	policy := r.cfg.Policy.String()
	r.mu.Unlock()

	out := Snapshot{
		Policy:    policy,
		Requests:  r.requests.Load(),
		Failovers: r.failovers.Load(),
		Rejected:  r.rejected.Load(),
	}
	for i, rep := range reps {
		st := ReplicaStatus{
			ID:             rep.id,
			State:          states[i].String(),
			InFlight:       rep.inflight.Load(),
			RoutedAffinity: rep.routedAffinity.Load(),
			RoutedSpill:    rep.routedSpill.Load(),
			RoutedScatter:  rep.routedScatter.Load(),
			RoutedFailover: rep.routedFailover.Load(),
			Completed:      rep.completed.Load(),
			Errored:        rep.errored.Load(),
			Breaker:        rep.breakerState(time.Now()),
			BreakerTrips:   rep.brkTrips.Load(),
		}
		if snap, ok := r.freshSnapshot(rep); ok {
			s := snap
			st.Serve = &s
		}
		out.Replicas = append(out.Replicas, st)
	}
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].ID < out.Replicas[j].ID })
	return out
}

// AggregatePrefixHitRate sums prefix-cache hits and misses across every
// reachable replica and returns hits/(hits+misses) — the sharded
// fleet's aggregate reuse, directly comparable to a single shared-cache
// replica's rate. ok=false when no replica reported any lookups.
func (s Snapshot) AggregatePrefixHitRate() (float64, bool) {
	var hits, misses int64
	for _, rep := range s.Replicas {
		if rep.Serve == nil {
			continue
		}
		hits += rep.Serve.PrefixHits
		misses += rep.Serve.PrefixMisses
	}
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

// WritePrometheus renders the router's counters in Prometheus text
// exposition format, one labelled sample per replica per reason —
// tender_router_* families compose with each replica's own
// tender_* export without collisions.
func (r *Router) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	p := obs.NewPromWriter(w)
	p.Counter("tender_router_requests_total", "Requests entering the router.", float64(snap.Requests))
	p.Counter("tender_router_failovers_total", "Submissions retried on another replica after a retriable failure.", float64(snap.Failovers))
	p.Counter("tender_router_rejected_total", "Requests failed with no healthy replica left to try.", float64(snap.Rejected))
	for _, rep := range snap.Replicas {
		lbl := obs.Label{Name: "replica", Value: rep.ID}
		up := 0.0
		if rep.State == StateUp.String() {
			up = 1
		}
		p.Gauge("tender_router_replica_up", "Replica is in rotation (1 = up).", up, lbl)
		p.Gauge("tender_router_replica_inflight", "Router-side in-flight requests on the replica.", float64(rep.InFlight), lbl)
		p.Counter("tender_router_routed_total", "Requests routed to the replica, by decision reason.",
			float64(rep.RoutedAffinity), lbl, obs.Label{Name: "reason", Value: "affinity"})
		p.Counter("tender_router_routed_total", "Requests routed to the replica, by decision reason.",
			float64(rep.RoutedSpill), lbl, obs.Label{Name: "reason", Value: "spill"})
		p.Counter("tender_router_routed_total", "Requests routed to the replica, by decision reason.",
			float64(rep.RoutedScatter), lbl, obs.Label{Name: "reason", Value: "scatter"})
		p.Counter("tender_router_routed_total", "Requests routed to the replica, by decision reason.",
			float64(rep.RoutedFailover), lbl, obs.Label{Name: "reason", Value: "failover"})
		p.Counter("tender_router_replica_completed_total", "Requests the replica completed for the router.", float64(rep.Completed), lbl)
		p.Counter("tender_router_replica_errored_total", "Requests the replica failed terminally.", float64(rep.Errored), lbl)
		open := 0.0
		if rep.Breaker == "open" {
			open = 1
		}
		p.Gauge("tender_router_breaker_open", "Circuit breaker is open (1 = rejecting).", open, lbl)
		p.Counter("tender_router_breaker_trips_total", "Circuit breaker open transitions.", float64(rep.BreakerTrips), lbl)
	}
	return p.Flush()
}
