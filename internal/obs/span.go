package obs

import "repro/internal/sim"

// Span is one request's hop timeline through a cluster: the five
// instants the request path stamps as it crosses the fleet
// (client → router → network → node queue → service → reply). All
// instants are virtual times from the same total (at, seq) event order
// the engines fire in, so spans are byte-identical for any host
// parallelism or shard count.
type Span struct {
	// ID is the request id.
	ID int
	// Node names the node the router picked.
	Node string
	// Submit is the client-edge arrival (submission + routing instant).
	Submit sim.Time
	// Arrive is the request's arrival at the node, after the request
	// network hop.
	Arrive sim.Time
	// Start is the instant the node's service began working on the
	// request — its gateway handler's first action. Start-Arrive is
	// pure node-side queueing.
	Start sim.Time
	// Done is the node-side completion instant.
	Done sim.Time
	// Reply is the reply's arrival back at the client edge. A zero
	// Reply marks an incomplete span (the run timed out first).
	Reply sim.Time
	// Outcome classifies how the request resolved (the Outcome*
	// constants). A cluster stamps one on every request when it
	// resolves, or as abandoned when the run hits its horizon.
	Outcome string
	// Attempts counts dispatches the request took: 1 when nothing was
	// retried or hedged, 0 for a request abandoned before its first.
	Attempts int
}

// Request outcome labels stamped into Span.Outcome by clusters.
const (
	// OutcomeOK marks a request that completed end to end.
	OutcomeOK = "ok"
	// OutcomeFailed marks a request whose final attempt failed hard
	// (node crash or node-side shed) with no retry available.
	OutcomeFailed = "failed"
	// OutcomeTimeout marks a request whose final attempt exceeded its
	// deadline with no retry available.
	OutcomeTimeout = "timeout"
	// OutcomeShed marks a request dropped because the retry budget was
	// empty.
	OutcomeShed = "shed"
	// OutcomeNoNode marks a request that found no live node to route
	// to.
	OutcomeNoNode = "no-node"
	// OutcomeAbandoned marks a request still in flight when the run hit
	// its horizon.
	OutcomeAbandoned = "abandoned"
)

// Complete reports whether the request finished end to end.
func (s Span) Complete() bool { return s.Reply > 0 }

// Network is the time spent on the wire: both hops.
func (s Span) Network() sim.Duration { return s.Arrive.Sub(s.Submit) + s.Reply.Sub(s.Done) }

// Queue is the node-side queueing delay: arrival at the node until the
// service started the request.
func (s Span) Queue() sim.Duration { return s.Start.Sub(s.Arrive) }

// Service is the node-side service time proper.
func (s Span) Service() sim.Duration { return s.Done.Sub(s.Start) }

// Total is the end-to-end latency.
func (s Span) Total() sim.Duration { return s.Reply.Sub(s.Submit) }

// TailBreakdown decomposes where the latency tail lives: across the
// complete spans whose total is at or above the q-quantile of totals,
// the mean share of network, queue, and service time.
type TailBreakdown struct {
	// N counts the tail spans the shares average over.
	N int
	// Threshold is the q-quantile of end-to-end totals that defines
	// the tail set.
	Threshold sim.Duration
	// Network, Queue, and Service are mean shares in [0, 1]; they sum
	// to 1 for any non-empty tail.
	Network, Queue, Service float64
}

// BreakTail computes the tail breakdown at quantile q (e.g. 0.99 for
// "where does p99 live") over the complete spans in ss. Returns a zero
// breakdown when no span completed.
func BreakTail(ss []Span, q float64) TailBreakdown {
	totals := make([]sim.Duration, 0, len(ss))
	for _, s := range ss {
		if s.Complete() {
			totals = append(totals, s.Total())
		}
	}
	if len(totals) == 0 {
		return TailBreakdown{}
	}
	sort := func(ds []sim.Duration) {
		// Insertion sort: span populations are request-train sized and
		// this keeps the deterministic core free of sort closures.
		for i := 1; i < len(ds); i++ {
			for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
				ds[j], ds[j-1] = ds[j-1], ds[j]
			}
		}
	}
	sort(totals)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	thr := totals[int(q*float64(len(totals)-1))]
	b := TailBreakdown{Threshold: thr}
	var net, que, svc float64
	for _, s := range ss {
		if !s.Complete() || s.Total() < thr {
			continue
		}
		tot := float64(s.Total())
		if tot <= 0 {
			continue
		}
		b.N++
		net += float64(s.Network()) / tot
		que += float64(s.Queue()) / tot
		svc += float64(s.Service()) / tot
	}
	if b.N > 0 {
		b.Network = net / float64(b.N)
		b.Queue = que / float64(b.N)
		b.Service = svc / float64(b.N)
	}
	return b
}
