package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/workload"
)

// ServerConfig parameterizes a fleet Server.
type ServerConfig struct {
	// Nodes describes the fleet: one board-config slice per node; at
	// least one node with at least one board is required.
	Nodes [][]serve.BoardConfig
	// Policy names the placement policy (see PolicyNames).
	Policy string
	// Seed feeds the random placement policy; other policies ignore it.
	Seed uint64
	// Tenant is the fleet-wide per-tenant admission limit: one shared
	// token bucket per tenant across every node, so a tenant throttled
	// here is out of budget on the whole fleet — never told to wait
	// while another node still has tokens.
	Tenant serve.TenantLimits
	// Version is reported by /healthz and /metrics.
	Version string
	// Now is the admission clock; nil means time.Now.
	Now func() time.Time
	// Faults arms boards with campaigns derived from this plan (board
	// k of node n gets Derive(n*perNode+k), fleet-wide unique). Nil
	// means no injection.
	Faults *fault.Plan
	// FaultNode, when >= 0, restricts the campaign to that node's
	// boards — the smoke uses it to take exactly one node out
	// deterministically. < 0 arms every node; a node the fleet does not
	// have is an error.
	FaultNode int
}

// Server is the fleet front-end: scheduler + fleet-wide admission +
// HTTP handlers. The API is wire-compatible with a single vfpgad (same
// endpoints and bodies) plus GET /v1/fleet for routing inspection.
type Server struct {
	sched   *Scheduler
	adm     *serve.Admission
	version string
	mux     *http.ServeMux
}

// NewServer builds the fleet server and its nodes. All nodes share one
// strip-compile cache and one admission domain.
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: a fleet needs at least one node")
	}
	if cfg.FaultNode >= len(cfg.Nodes) {
		return nil, fmt.Errorf("fleet: fault node %d outside 0..%d (below 0 arms every node)", cfg.FaultNode, len(cfg.Nodes)-1)
	}
	policy, err := NewPolicy(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	adm := serve.NewAdmission(cfg.Tenant, cfg.Now)
	cache := compile.NewStripCache(compile.DefaultCacheCapacity)
	nodes := make([]*Node, 0, len(cfg.Nodes))
	boardSeq := 0
	for i, bcfgs := range cfg.Nodes {
		boards := append([]serve.BoardConfig(nil), bcfgs...)
		for k := range boards {
			if cfg.Faults != nil && boards[k].Faults == nil && (cfg.FaultNode < 0 || cfg.FaultNode == i) {
				plan := cfg.Faults.Derive(uint64(boardSeq + k))
				boards[k].Faults = &plan
			}
		}
		boardSeq += len(boards)
		n, err := NewNode(i, boards, serve.PoolOptions{Outcomes: adm, Cache: cache})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	sched, err := NewScheduler(nodes, policy, cache)
	if err != nil {
		return nil, err
	}
	s := &Server{sched: sched, adm: adm, version: cfg.Version}
	s.mux = serve.NewAPI(backend{s}, adm, cfg.Version)
	s.mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, s.fleetInfo())
	})
	return s, nil
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches every node's board workers.
func (s *Server) Start() { s.sched.Start() }

// Drain stops intake and blocks until every accepted job has finished
// on every node.
func (s *Server) Drain() { s.sched.Drain() }

// backend is the job API's view of the fleet: the same routes and
// bodies as a single vfpgad, routed through the scheduler.
type backend struct{ s *Server }

func (backend) PinError(req *serve.SubmitRequest) string {
	if req.Board != nil && req.Node == nil {
		return "board pinning in a fleet requires a node pin too"
	}
	return ""
}

func (b backend) Submit(ctx context.Context, cancel context.CancelFunc, req *serve.SubmitRequest) (serve.SubmitResponse, error) {
	j, err := b.s.sched.Submit(Request{
		Tenant: req.Tenant, Spec: &req.Workload, Trace: req.Trace,
		Node: req.Node, Board: req.Board,
		Ctx: ctx, Cancel: cancel,
	})
	if err != nil {
		return serve.SubmitResponse{}, err
	}
	st := j.Status()
	return serve.SubmitResponse{ID: j.ID(), Board: st.Board, Node: st.Node}, nil
}

func (backend) SubmitStatus(err error) int {
	switch {
	case errors.Is(err, ErrNoSuchNode):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoHealthyNode):
		return http.StatusServiceUnavailable
	}
	return 0
}

func (backend) QueueFull() string { return "every node's board queues are full" }

func (b backend) JobStatus(id string, cancel bool) (any, error) {
	j, err := b.s.sched.Job(id)
	if err != nil {
		return nil, err
	}
	if cancel {
		j.Cancel()
	}
	return j.Status(), nil
}

// BoardInfo is one entry of a fleet's GET /v1/boards: the node's board
// info plus which node it belongs to. Single-daemon clients that decode
// []serve.BoardInfo keep working — the extra key is ignored.
type BoardInfo struct {
	serve.BoardInfo
	Node int `json:"node"`
}

func (b backend) Boards() any {
	var infos []BoardInfo
	for _, n := range b.s.sched.Nodes() {
		for _, bi := range n.Pool().BoardInfos() {
			infos = append(infos, BoardInfo{BoardInfo: bi, Node: n.ID()})
		}
	}
	return infos
}

// NodeInfo is one node's entry of GET /v1/fleet.
type NodeInfo struct {
	ID      int  `json:"id"`
	Healthy bool `json:"healthy"`
	Queued  int  `json:"queued"`
	// Routed counts placements accepted by this node.
	Routed int64 `json:"routed"`
	// BoardRequeues counts jobs the node moved between its own boards
	// after a board quarantine (node-internal; fleet-level re-routes are
	// in Info.Reroutes).
	BoardRequeues int64 `json:"board_requeues"`
	// FinishNS is, per scenario in workload.Scenarios() order (indexed
	// like a board's service_est_ns), the cost the node's pool would place
	// a job of it at now and the packing policy scores the node by: the
	// least queued_work_ns + service_est_ns over its healthy boards with
	// queue room; -1 when none has room.
	FinishNS [workload.NumScenarios]int64 `json:"finish_ns"`
	// Boards carries each board's queued work and service estimates.
	Boards []serve.BoardInfo `json:"boards"`
}

// Info is the body of GET /v1/fleet.
type Info struct {
	Policy     string `json:"policy"`
	Draining   bool   `json:"draining"`
	Placements int64  `json:"placements"`
	Reroutes   int64  `json:"reroutes"`
	// ScoreP50 and ScoreP95 come from a bounded bucketed record of the
	// placement scores: each is its bucket's upper bound, at most 1/16
	// above the exact quantile and never above the largest score.
	ScoreP50 float64    `json:"score_p50"`
	ScoreP95 float64    `json:"score_p95"`
	Nodes    []NodeInfo `json:"nodes"`
}

func (s *Server) fleetInfo() Info {
	p50, p95, _, count := s.sched.ScoreStats()
	info := Info{
		Policy:     s.sched.Policy(),
		Draining:   s.sched.IsDraining(),
		Placements: count,
		Reroutes:   s.sched.RerouteCount(),
		ScoreP50:   p50,
		ScoreP95:   p95,
	}
	routed := s.sched.Routed()
	for i, n := range s.sched.Nodes() {
		// One read of the boards, so a node's entry agrees with itself.
		boards := n.Pool().BoardInfos()
		view := n.viewOf(boards, -1)
		ni := NodeInfo{
			ID: n.ID(), Healthy: view.Healthy, Queued: view.Queued,
			Routed: routed[i], BoardRequeues: n.Pool().RequeueCount(),
			Boards: boards,
		}
		for s := range ni.FinishNS {
			ni.FinishNS[s] = n.Pool().Quote(s).FinishNS
		}
		info.Nodes = append(info.Nodes, ni)
	}
	return info
}

func (b backend) Health() serve.Health {
	status := "ok"
	if b.s.sched.IsDraining() {
		status = "draining"
	}
	boards := 0
	for _, n := range b.s.sched.Nodes() {
		boards += len(n.Pool().BoardInfos())
	}
	return serve.Health{Status: status, Boards: boards, Nodes: len(b.s.sched.Nodes())}
}

func (b backend) WriteMetrics(w io.Writer) error { return b.s.writeMetrics(w) }
