package serve

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/fault"
)

// Config parameterizes a Server.
type Config struct {
	// Boards describes the pool; at least one is required.
	Boards []BoardConfig
	// Tenant is the per-tenant admission limit.
	Tenant TenantLimits
	// Version is reported by /healthz and /metrics (build info).
	Version string
	// Now is the admission clock; nil means time.Now. Injectable for
	// deterministic tests.
	Now func() time.Time
	// Faults arms every board with a fault-injection campaign derived
	// from this plan (board i gets Derive(i), so boards fail
	// independently but reproducibly). Boards with their own Faults plan
	// keep it. Nil means no injection anywhere.
	Faults *fault.Plan
}

// Server is the vfpgad service: board pool + admission + HTTP handlers.
type Server struct {
	pool    *Pool
	adm     *Admission
	version string
	mux     *http.ServeMux
}

// New builds a Server. Call Start before serving traffic; until then
// submissions queue but nothing runs (tests use that window to fill
// queues deterministically).
func New(cfg Config) (*Server, error) {
	adm := NewAdmission(cfg.Tenant, cfg.Now)
	boards := append([]BoardConfig(nil), cfg.Boards...)
	if cfg.Faults != nil {
		for i := range boards {
			if boards[i].Faults == nil {
				plan := cfg.Faults.Derive(uint64(i))
				boards[i].Faults = &plan
			}
		}
	}
	p, err := NewPool(boards, PoolOptions{Outcomes: adm})
	if err != nil {
		return nil, err
	}
	s := &Server{pool: p, adm: adm, version: cfg.Version}
	s.mux = NewAPI(poolBackend{s}, adm, cfg.Version)
	return s, nil
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the board workers.
func (s *Server) Start() { s.pool.Start() }

// Drain stops intake and blocks until every accepted job has finished.
func (s *Server) Drain() { s.pool.Drain() }

// poolBackend is the job API's view of a single daemon.
type poolBackend struct{ s *Server }

func (poolBackend) PinError(req *SubmitRequest) string {
	if req.Node != nil {
		return "node pinning requires a fleet (vfpgad -nodes > 1)"
	}
	return ""
}

func (b poolBackend) Submit(ctx context.Context, cancel context.CancelFunc, req *SubmitRequest) (SubmitResponse, error) {
	j, err := b.s.pool.Submit(SubmitArgs{
		Tenant: req.Tenant, Spec: &req.Workload, Trace: req.Trace,
		Board: req.Board, Ctx: ctx, Cancel: cancel,
	})
	if err != nil {
		return SubmitResponse{}, err
	}
	return SubmitResponse{ID: j.ID(), Board: j.Status().Board}, nil
}

func (poolBackend) SubmitStatus(error) int { return 0 }

func (poolBackend) QueueFull() string { return "all board queues full" }

func (b poolBackend) JobStatus(id string, cancel bool) (any, error) {
	j, err := b.s.pool.Job(id)
	if err != nil {
		return nil, err
	}
	if cancel {
		j.Cancel()
	}
	return j.Status(), nil
}

func (b poolBackend) Boards() any { return b.s.pool.BoardInfos() }

func (b poolBackend) Health() Health {
	status := "ok"
	if b.s.pool.IsDraining() {
		status = "draining"
	}
	return Health{Status: status, Boards: len(b.s.pool.boards)}
}

func (b poolBackend) WriteMetrics(w io.Writer) error { return b.s.writeMetrics(w) }
