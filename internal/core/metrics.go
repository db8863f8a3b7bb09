package core

import "repro/internal/sim"

// Counts is what the managers did to one device: the op counters and
// device times the ledger keeps. Metrics embeds it live and
// MetricsSnapshot on the wire, so the two forms cannot drift apart.
type Counts struct {
	Loads       int64 `json:"loads"`     // configuration downloads
	Evictions   int64 `json:"evictions"` // circuits displaced from the device
	Readbacks   int64 `json:"readbacks"` // state save operations
	Restores    int64 `json:"restores"`  // state restore operations
	Rollbacks   int64 `json:"rollbacks"` // operations restarted from scratch
	PageFaults  int64 `json:"page_faults"`
	PageLoads   int64 `json:"page_loads"`
	GCRuns      int64 `json:"gc_runs"`
	Relocations int64 `json:"relocations"` // circuits moved by garbage collection
	Blocks      int64 `json:"blocks"`      // tasks suspended waiting for FPGA space
	MuxedOps    int64 `json:"muxed_ops"`   // operations run with multiplexed pins

	// Fault-injection accounting (zero unless a fault.Injector is armed
	// on the ledger). Every injected fault is followed by exactly one
	// retry or one escalation, so FaultsInjected equals FaultRetries
	// plus FaultEscalations — the conformance audit pins that.
	FaultsInjected   int64 `json:"faults_injected"`   // injected faults detected
	FaultRetries     int64 `json:"fault_retries"`     // recovery retries after a fault
	FaultRecoveries  int64 `json:"fault_recoveries"`  // operations that succeeded after >=1 fault
	FaultEscalations int64 `json:"fault_escalations"` // operations whose retry budget ran out

	ConfigTime   sim.Time `json:"config_time_ns"` // total time spent downloading configurations
	ReadbackTime sim.Time `json:"readback_time_ns"`
	RestoreTime  sim.Time `json:"restore_time_ns"`
	FaultTime    sim.Time `json:"fault_time_ns"` // time wasted on injected faults and retry backoff
}

// MetricsSnapshot is the JSON-serializable value form of Metrics: its
// counts and the run's utilization, detached from the live engine.
// The serve layer ships snapshots over the wire and accumulates them per
// board; the equality tests compare them byte-for-byte against direct
// runs.
type MetricsSnapshot struct {
	Counts

	// UtilMean is the time-weighted mean of configured CLBs over [0, the
	// snapshot time]; UtilMax is the peak. Both describe one run and are
	// deliberately dropped by Accumulate (utilization does not sum).
	UtilMean float64 `json:"util_mean_clbs"`
	UtilMax  float64 `json:"util_max_clbs"`
}

// Snapshot captures the metrics at virtual time now (used to close the
// time-weighted utilization integral).
func (m *Metrics) Snapshot(now sim.Time) MetricsSnapshot {
	return MetricsSnapshot{
		Counts:   m.Counts,
		UtilMean: m.Util.Average(int64(now)),
		UtilMax:  m.Util.Max(),
	}
}

// Accumulate adds o's counters and times into s. The utilization fields
// are zeroed: they are per-run averages and peaks, not summable totals.
func (s *MetricsSnapshot) Accumulate(o MetricsSnapshot) {
	s.Loads += o.Loads
	s.Evictions += o.Evictions
	s.Readbacks += o.Readbacks
	s.Restores += o.Restores
	s.Rollbacks += o.Rollbacks
	s.PageFaults += o.PageFaults
	s.PageLoads += o.PageLoads
	s.GCRuns += o.GCRuns
	s.Relocations += o.Relocations
	s.Blocks += o.Blocks
	s.MuxedOps += o.MuxedOps
	s.FaultsInjected += o.FaultsInjected
	s.FaultRetries += o.FaultRetries
	s.FaultRecoveries += o.FaultRecoveries
	s.FaultEscalations += o.FaultEscalations
	s.ConfigTime += o.ConfigTime
	s.ReadbackTime += o.ReadbackTime
	s.RestoreTime += o.RestoreTime
	s.FaultTime += o.FaultTime
	s.UtilMean, s.UtilMax = 0, 0
}
