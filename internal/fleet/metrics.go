package fleet

import (
	"io"
	"strconv"

	"repro/internal/serve"
)

// Fleet-level Prometheus text exposition, alongside (not replacing)
// each node's serve metrics: every family here is fleet-scoped
// (vfpgad_fleet_*) so a scrape of the front-end never collides with a
// scrape of an individual daemon. Same determinism contract as the
// serve exposition: fixed series order, no wall-clock values.

// writeMetrics renders the fleet exposition.
func (s *Server) writeMetrics(w io.Writer) error {
	m := serve.NewMetricsWriter(w)
	sched := s.sched

	m.Family("vfpgad_fleet_info", "Fleet identification; value is always 1.", "gauge")
	m.Series("vfpgad_fleet_info", "1", "version", s.version, "policy", sched.Policy())

	m.Family("vfpgad_fleet_nodes", "Number of nodes in the fleet.", "gauge")
	m.Int("vfpgad_fleet_nodes", int64(len(sched.Nodes())))

	m.Family("vfpgad_fleet_draining", "1 while the fleet is draining, 0 otherwise.", "gauge")
	draining := int64(0)
	if sched.IsDraining() {
		draining = 1
	}
	m.Int("vfpgad_fleet_draining", draining)

	// Fleet-wide admission and job outcomes, per tenant: the shared
	// budget domain, not any single node's.
	tenants := s.adm.Snapshot()
	m.Family("vfpgad_fleet_admission_total", "Fleet-wide submissions by admission decision.", "counter")
	for _, t := range tenants {
		m.Int("vfpgad_fleet_admission_total", t.Admitted, "tenant", t.Tenant, "decision", "admitted")
		m.Int("vfpgad_fleet_admission_total", t.Throttled, "tenant", t.Tenant, "decision", "throttled")
		m.Int("vfpgad_fleet_admission_total", t.QueueFull, "tenant", t.Tenant, "decision", "queue_full")
	}
	m.Family("vfpgad_fleet_jobs_total", "Finished jobs fleet-wide by outcome.", "counter")
	for _, t := range tenants {
		m.Int("vfpgad_fleet_jobs_total", t.Completed, "tenant", t.Tenant, "outcome", "completed")
		m.Int("vfpgad_fleet_jobs_total", t.Failed, "tenant", t.Tenant, "outcome", "failed")
	}

	// Routing decisions.
	m.Family("vfpgad_fleet_routed_total", "Accepted placements by policy and node.", "counter")
	routed := sched.Routed()
	for i, n := range routed {
		m.Int("vfpgad_fleet_routed_total", n, "policy", sched.Policy(), "node", strconv.Itoa(i))
	}
	m.Family("vfpgad_fleet_reroutes_total", "Placements made after a node-level casualty displaced the job.", "counter")
	m.Int("vfpgad_fleet_reroutes_total", sched.RerouteCount())

	// Placement score summary (lower is better; the policy's own
	// scale). The _sum/_count series belong to the summary family per
	// the exposition format; their names are built from a variable so
	// the analyzer's declared-family check keys on the summary name.
	p50, p95, scoreSum, scoreCount := sched.ScoreStats()
	scoreFamily := "vfpgad_fleet_placement_score"
	m.Family("vfpgad_fleet_placement_score", "Placement score of accepted placements (policy scale; lower is better).", "summary")
	m.Float("vfpgad_fleet_placement_score", p50, "quantile", "0.5")
	m.Float("vfpgad_fleet_placement_score", p95, "quantile", "0.95")
	m.Float(scoreFamily+"_sum", scoreSum)
	m.Int(scoreFamily+"_count", scoreCount)

	// Per-node health and pressure — inputs the packing policy scores
	// against, exported so a dashboard can replay its decisions; the
	// per-board service estimates and queued work are on /v1/boards.
	views := make([]NodeView, 0, len(sched.Nodes()))
	for _, n := range sched.Nodes() {
		views = append(views, n.View())
	}
	m.Family("vfpgad_fleet_node_healthy", "1 while the node has at least one non-quarantined board.", "gauge")
	for _, v := range views {
		healthy := int64(0)
		if v.Healthy {
			healthy = 1
		}
		m.Int("vfpgad_fleet_node_healthy", healthy, "node", strconv.Itoa(v.ID))
	}
	m.Family("vfpgad_fleet_node_queue_depth", "Queued plus running jobs across the node's boards.", "gauge")
	for _, v := range views {
		m.Int("vfpgad_fleet_node_queue_depth", int64(v.Queued), "node", strconv.Itoa(v.ID))
	}
	m.Family("vfpgad_fleet_node_board_requeues_total", "Jobs the node moved between its own boards after a quarantine.", "counter")
	for _, n := range sched.Nodes() {
		m.Int("vfpgad_fleet_node_board_requeues_total", n.Pool().RequeueCount(), "node", strconv.Itoa(n.ID()))
	}
	return m.Err()
}
