package inference

import (
	"fmt"

	"repro/internal/glibc"
	"repro/internal/stack"
)

// ServiceConfig parameterises one node's persistent microservice stack
// (the cluster-serving counterpart of Config: no arrival process, no
// request budget — requests are pushed in by Submit until Stop).
type ServiceConfig struct {
	// Scheme selects the resource-management scheme (partitioning masks
	// and the stack mode, exactly like the standalone benchmark).
	Scheme Scheme
	// Batches per request (default 8, as in the paper).
	Batches int
	// Scale shrinks model works, preserving the load factor (default 1).
	Scale float64
	// Models are the inference servers (default PaperModels).
	Models []Model
	// Started, when non-nil, is invoked with the request id at the
	// simulated instant the gateway handler begins serving it — before
	// any planning or fan-out — so span records can separate node-side
	// queueing from service time. Nil (the default) costs nothing.
	Started func(id int)
	// TraceID, when non-nil, maps a submitted request id to the number
	// traced thread names carry ("gw-req<n>"). The cluster passes opaque
	// per-attempt handles as ids and supplies Cluster.AttemptIDFunc here,
	// so traces name each handler by its attempt. Nil names threads by
	// the id itself. Consulted only when the node's kernel is traced.
	TraceID func(id int) int
}

// Service is a running microservice stack on one simulated machine: the
// gateway and the inference servers stay resident, serve every request
// handed in by Submit, and drain cleanly on Stop. It is the node-side
// backend the cluster layer routes into.
//
// Handler pthread handles are retained until the drain (joined at
// Stop), exactly like the counted standalone benchmark, so host memory
// grows O(requests) over a service's lifetime — fine for the bounded
// request trains the scenarios serve; an open-ended service would want
// incremental reaping.
type Service struct {
	sys     *stack.System
	gwIn    *glibc.Chan
	done    func(id int)
	traceID func(id int) int
}

// NewService wires a persistent gateway + servers on sys. done(id) is
// invoked — in the gateway handler's thread context, at the simulated
// completion instant — exactly once per submitted request.
func NewService(sys *stack.System, cfg ServiceConfig, done func(id int)) (*Service, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 8
	}
	if cfg.Models == nil {
		cfg.Models = PaperModels()
	}
	mode := stack.ModeBaseline
	if cfg.Scheme == Coop {
		mode = stack.ModeCoop
	}
	k := sys.K
	cores := k.NumCores()

	s := &Service{sys: sys, gwIn: glibc.NewChan(k), done: done, traceID: cfg.TraceID}
	serverIn := make([]*glibc.Chan, len(cfg.Models))
	for i := range serverIn {
		serverIn[i] = glibc.NewChan(k)
	}
	masks := partition(cfg.Scheme, cfg.Models, cores)

	// Inference servers: like the standalone benchmark, but the serve
	// loop is sentinel-terminated instead of counted — a nil message
	// means "drain and exit".
	for i, m := range cfg.Models {
		in := serverIn[i]
		opts := glibc.Options{Nice: 20, Affinity: masks[i+1]}
		recv := func() *request {
			req, _ := in.Recv().(*request)
			return req
		}
		if err := startServer(sys, mode, m, opts, serverThreads(cfg.Scheme, m, cores),
			cfg.Batches, cfg.Scale, recv); err != nil {
			return nil, err
		}
	}

	// Gateway: receives routed requests, plans, fans out to every
	// server, and reports completion through done. On the stop sentinel
	// it joins its handlers, then forwards the sentinel to the servers.
	_, err := sys.Start("gateway", mode, glibc.Options{Nice: 0, Affinity: masks[0]}, func(l *glibc.Lib) {
		var handlers []*glibc.Pthread
		for {
			req, _ := s.gwIn.Recv().(*request)
			if req == nil {
				break
			}
			name := "gw-req"
			if k.Tracer != nil {
				name = fmt.Sprintf("gw-req%d", req.tag)
			}
			handlers = append(handlers, l.PthreadCreate(
				name, func() {
					if cfg.Started != nil {
						cfg.Started(req.id)
					}
					gatewayHandle(l, req, serverIn, cfg.Scale)
					s.done(req.id)
				}))
		}
		for _, h := range handlers {
			l.PthreadJoin(h)
		}
		for i := range serverIn {
			serverIn[i].Send((*request)(nil))
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Submit hands request id to the gateway. It may be called from event
// context (the cluster's network-delivery events) or from a simulated
// thread.
func (s *Service) Submit(id int) {
	tag := id
	if s.traceID != nil && s.sys.K.Tracer != nil {
		tag = s.traceID(id)
	}
	s.gwIn.Send(&request{id: id, tag: tag, resp: glibc.NewChan(s.sys.K)})
}

// Stop drains the service: the gateway finishes every in-flight
// request, shuts the servers down, and all service processes exit. Call
// it once, after the last submitted request completed.
func (s *Service) Stop() {
	s.gwIn.Send((*request)(nil))
}
