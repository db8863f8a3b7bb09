package serve

import (
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Prometheus text exposition (version 0.0.4), hand-rolled: one writer,
// deterministic series order (boards by id, tenants sorted, label sets
// fixed), no timestamps and no wall-clock values, so a fixed scenario
// exposes byte-identical text — the golden test pins that, which is
// what keeps dashboards from breaking silently.

// MetricsWriter accumulates families in emission order; the fleet
// exposition is written through it too. The metricsonce analyzer keys on
// this type's name and method set. Each line is appended into one buffer
// the writer keeps from line to line and written whole: a scrape
// allocates per scrape, not per series.
type MetricsWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewMetricsWriter starts an exposition on w.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first write error.
func (m *MetricsWriter) Err() error { return m.err }

// Family declares a metric family: its HELP and TYPE lines.
func (m *MetricsWriter) Family(name, help, typ string) {
	if m.err != nil {
		return
	}
	b := append(m.buf[:0], "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	m.writeLine(b)
}

// Series writes one sample line. Labels come as ordered key/value pairs.
func (m *MetricsWriter) Series(name string, value string, kv ...string) {
	if m.err != nil {
		return
	}
	m.writeLine(append(m.sample(name, kv), value...))
}

// Int writes an integer sample.
func (m *MetricsWriter) Int(name string, v int64, kv ...string) {
	if m.err != nil {
		return
	}
	m.writeLine(strconv.AppendInt(m.sample(name, kv), v, 10))
}

// Float renders with a fixed four decimal places so a fixed scenario
// stays byte-identical across platforms.
func (m *MetricsWriter) Float(name string, v float64, kv ...string) {
	if m.err != nil {
		return
	}
	m.writeLine(strconv.AppendFloat(m.sample(name, kv), v, 'f', 4, 64))
}

// sample starts a sample line in the buffer: the name, the labels, and
// the space the value follows.
func (m *MetricsWriter) sample(name string, kv []string) []byte {
	b := append(m.buf[:0], name...)
	if len(kv) > 0 {
		b = append(b, '{')
		for i := 0; i+1 < len(kv); i += 2 {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, kv[i]...)
			b = append(b, `="`...)
			b = appendLabel(b, kv[i+1])
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// writeLine ends the line in b and writes it, keeping b's array for the
// next line.
func (m *MetricsWriter) writeLine(b []byte) {
	m.buf = append(b, '\n')
	_, m.err = m.w.Write(m.buf)
}

// appendLabel appends a label value escaped per the exposition format.
// A value with nothing to escape — nearly every one — is copied whole.
func appendLabel(b []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\"\n") {
		return append(b, v...)
	}
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// ledgerOpCounts flattens a metrics snapshot into the per-op counter
// series, in fixed order.
func ledgerOpCounts(s core.MetricsSnapshot) []struct {
	Op string
	N  int64
} {
	return []struct {
		Op string
		N  int64
	}{
		{"load", s.Loads},
		{"evict", s.Evictions},
		{"readback", s.Readbacks},
		{"restore", s.Restores},
		{"rollback", s.Rollbacks},
		{"page_fault", s.PageFaults},
		{"page_load", s.PageLoads},
		{"gc", s.GCRuns},
		{"relocate", s.Relocations},
		{"block", s.Blocks},
		{"muxed", s.MuxedOps},
		{"fault", s.FaultsInjected},
		{"fault_retry", s.FaultRetries},
		{"fault_recovery", s.FaultRecoveries},
		{"fault_escalation", s.FaultEscalations},
	}
}

// writeMetrics renders the whole exposition.
func (s *Server) writeMetrics(w io.Writer) error {
	m := NewMetricsWriter(w)

	m.Family("vfpgad_build_info", "Build identification; value is always 1.", "gauge")
	m.Series("vfpgad_build_info", "1", "version", s.version)

	m.Family("vfpgad_draining", "1 while the daemon is draining, 0 otherwise.", "gauge")
	draining := int64(0)
	if s.pool.IsDraining() {
		draining = 1
	}
	m.Int("vfpgad_draining", draining)

	m.Family("vfpgad_boards", "Number of boards in the pool.", "gauge")
	m.Int("vfpgad_boards", int64(len(s.pool.boards)))

	// Admission and job outcomes, per tenant.
	tenants := s.adm.Snapshot()
	m.Family("vfpgad_admission_total", "Submissions by admission decision.", "counter")
	for _, t := range tenants {
		m.Int("vfpgad_admission_total", t.Admitted, "tenant", t.Tenant, "decision", "admitted")
		m.Int("vfpgad_admission_total", t.Throttled, "tenant", t.Tenant, "decision", "throttled")
		m.Int("vfpgad_admission_total", t.QueueFull, "tenant", t.Tenant, "decision", "queue_full")
	}
	m.Family("vfpgad_jobs_total", "Finished jobs by outcome.", "counter")
	for _, t := range tenants {
		m.Int("vfpgad_jobs_total", t.Completed, "tenant", t.Tenant, "outcome", "completed")
		m.Int("vfpgad_jobs_total", t.Failed, "tenant", t.Tenant, "outcome", "failed")
	}

	// Board occupancy and queues.
	m.Family("vfpgad_board_busy", "1 while the board is running a job.", "gauge")
	infos := make([]BoardInfo, 0, len(s.pool.boards))
	aggs := make([]core.MetricsSnapshot, 0, len(s.pool.boards))
	for _, b := range s.pool.boards {
		infos = append(infos, b.info())
		b.mu.Lock()
		aggs = append(aggs, b.agg)
		b.mu.Unlock()
	}
	for _, bi := range infos {
		busy := int64(0)
		if bi.State == "busy" {
			busy = 1
		}
		m.Int("vfpgad_board_busy", busy, "board", strconv.Itoa(bi.ID), "manager", bi.Manager)
	}
	m.Family("vfpgad_queue_depth", "Jobs waiting in the board queue.", "gauge")
	for _, bi := range infos {
		m.Int("vfpgad_queue_depth", int64(bi.QueueDepth), "board", strconv.Itoa(bi.ID))
	}
	m.Family("vfpgad_queue_capacity", "Board queue capacity.", "gauge")
	for _, bi := range infos {
		m.Int("vfpgad_queue_capacity", int64(bi.QueueCap), "board", strconv.Itoa(bi.ID))
	}
	m.Family("vfpgad_board_jobs_total", "Jobs finished by the board, by outcome.", "counter")
	for _, bi := range infos {
		m.Int("vfpgad_board_jobs_total", bi.JobsDone, "board", strconv.Itoa(bi.ID), "outcome", "completed")
		m.Int("vfpgad_board_jobs_total", bi.JobsFailed, "board", strconv.Itoa(bi.ID), "outcome", "failed")
	}
	m.Family("vfpgad_board_resets_total", "Jobs started on the board by reset mode: warm on the erased hardware of the board's last job vs. cold on new hardware.", "counter")
	for _, bi := range infos {
		m.Int("vfpgad_board_resets_total", bi.WarmResets, "board", strconv.Itoa(bi.ID), "mode", "warm")
		m.Int("vfpgad_board_resets_total", bi.ColdResets, "board", strconv.Itoa(bi.ID), "mode", "cold")
	}
	m.Family("vfpgad_board_queued_work_ns", "Estimated virtual service time of the jobs queued on the board and the one it runs (ns); placement adds a job where this plus its estimate is least.", "gauge")
	for _, bi := range infos {
		m.Int("vfpgad_board_queued_work_ns", bi.QueuedWorkNS, "board", strconv.Itoa(bi.ID), "manager", bi.Manager)
	}
	m.Family("vfpgad_board_quarantined", "1 while the board is quarantined after a fault escalation.", "gauge")
	for _, bi := range infos {
		quarantined := int64(0)
		if bi.Quarantined {
			quarantined = 1
		}
		m.Int("vfpgad_board_quarantined", quarantined, "board", strconv.Itoa(bi.ID), "manager", bi.Manager)
	}
	m.Family("vfpgad_board_escalations_total", "Fault escalations the board saw.", "counter")
	for _, bi := range infos {
		m.Int("vfpgad_board_escalations_total", bi.Escalations, "board", strconv.Itoa(bi.ID))
	}
	m.Family("vfpgad_job_requeues_total", "Jobs rerun on another board after a quarantine.", "counter")
	m.Int("vfpgad_job_requeues_total", s.pool.RequeueCount())

	// Job service time, in virtual nanoseconds (makespan of completed
	// jobs). The quantiles come from a bounded log-linear recorder
	// (stats.LatencyRecorder): each reads at most 1/16 above the exact
	// value and never above the largest makespan seen; _sum and _count
	// are exact. The _sum/_count series belong to the summary family per
	// the exposition format; their names are built from a variable so the
	// analyzer's declared-family check keys on the summary name.
	svc := s.pool.ServiceStats()
	svcFamily := "vfpgad_job_service_time_ns"
	m.Family("vfpgad_job_service_time_ns", "Virtual service time of completed jobs (makespan, ns).", "summary")
	m.Int("vfpgad_job_service_time_ns", svc.P50, "quantile", "0.5")
	m.Int("vfpgad_job_service_time_ns", svc.P95, "quantile", "0.95")
	m.Int("vfpgad_job_service_time_ns", svc.P99, "quantile", "0.99")
	m.Int(svcFamily+"_sum", svc.Sum)
	m.Int(svcFamily+"_count", svc.Count)

	// The same service-time sample sliced per tenant: the load harness
	// reads these to cross-check its per-tenant latency breakdowns.
	tenantSvcFamily := "vfpgad_tenant_service_time_ns"
	m.Family("vfpgad_tenant_service_time_ns", "Virtual service time of completed jobs by tenant (makespan, ns).", "summary")
	for _, ts := range s.pool.TenantServiceStats() {
		m.Int("vfpgad_tenant_service_time_ns", ts.P50, "tenant", ts.Tenant, "quantile", "0.5")
		m.Int("vfpgad_tenant_service_time_ns", ts.P95, "tenant", ts.Tenant, "quantile", "0.95")
		m.Int("vfpgad_tenant_service_time_ns", ts.P99, "tenant", ts.Tenant, "quantile", "0.99")
		m.Int(tenantSvcFamily+"_sum", ts.Sum, "tenant", ts.Tenant)
		m.Int(tenantSvcFamily+"_count", ts.Count, "tenant", ts.Tenant)
	}

	// Device-side ledger counters accumulated across jobs, per board.
	m.Family("vfpgad_ledger_ops_total", "Residency-ledger operations across all jobs.", "counter")
	for i, agg := range aggs {
		for _, oc := range ledgerOpCounts(agg) {
			m.Int("vfpgad_ledger_ops_total", oc.N, "board", strconv.Itoa(i), "op", oc.Op)
		}
	}
	m.Family("vfpgad_device_time_ns_total", "Virtual nanoseconds of device overhead across all jobs.", "counter")
	for i, agg := range aggs {
		m.Int("vfpgad_device_time_ns_total", int64(agg.ConfigTime), "board", strconv.Itoa(i), "kind", "config")
		m.Int("vfpgad_device_time_ns_total", int64(agg.ReadbackTime), "board", strconv.Itoa(i), "kind", "readback")
		m.Int("vfpgad_device_time_ns_total", int64(agg.RestoreTime), "board", strconv.Itoa(i), "kind", "restore")
		m.Int("vfpgad_device_time_ns_total", int64(agg.FaultTime), "board", strconv.Itoa(i), "kind", "fault")
	}

	// Compile-cache effectiveness (shared across boards).
	cs := s.pool.cache.Stats()
	m.Family("vfpgad_compile_cache_lookups_total", "Strip-cache lookups by result.", "counter")
	m.Int("vfpgad_compile_cache_lookups_total", cs.Hits, "result", "hit")
	m.Int("vfpgad_compile_cache_lookups_total", cs.Misses, "result", "miss")
	m.Int("vfpgad_compile_cache_lookups_total", cs.Dedups, "result", "dedup")
	m.Family("vfpgad_compile_cache_evictions_total", "Strip-cache LRU evictions.", "counter")
	m.Int("vfpgad_compile_cache_evictions_total", cs.Evictions)
	m.Family("vfpgad_compile_cache_entries", "Strips currently cached.", "gauge")
	m.Int("vfpgad_compile_cache_entries", int64(cs.Entries))
	m.Family("vfpgad_compile_cache_capacity", "Strip-cache LRU bound.", "gauge")
	m.Int("vfpgad_compile_cache_capacity", int64(cs.Bound))

	// Task-set cache effectiveness (shared across the pool's boards).
	ss := s.pool.sets.Stats()
	m.Family("vfpgad_spec_cache_lookups_total", "Task-set builds by result: hit reuses the set an equal resolved spec built, miss generates one.", "counter")
	m.Int("vfpgad_spec_cache_lookups_total", ss.Hits, "result", "hit")
	m.Int("vfpgad_spec_cache_lookups_total", ss.Misses, "result", "miss")
	m.Family("vfpgad_spec_cache_ops", "Task-program ops held by the set cache; bounded by workload.MaxCachedOps.", "gauge")
	m.Int("vfpgad_spec_cache_ops", int64(ss.Ops))

	return m.err
}
