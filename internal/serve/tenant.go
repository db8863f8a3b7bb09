package serve

import (
	"math"
	"sort"
	"sync"
	"time"
)

// TenantLimits parameterizes the per-tenant token bucket: a tenant may
// hold up to Burst tokens and regains Rate tokens per second; one token
// admits one job. Rate <= 0 disables throttling (every submission is
// admitted as far as the bucket is concerned — queues still push back).
type TenantLimits struct {
	Rate  float64
	Burst float64
}

// tenantState is one tenant's bucket plus admission/outcome accounting.
type tenantState struct {
	tokens float64
	last   time.Time

	admitted  int64 // passed the bucket (may still bounce off a full queue)
	throttled int64 // rejected by the bucket
	queueFull int64 // admitted by the bucket, rejected by queue backpressure
	completed int64
	failed    int64
}

// Admission is the long-term scheduler of the service: it decides, per
// tenant, whether a submission may enter the system at all. The clock is
// injectable so tests (and the metrics golden file) are deterministic.
//
// One Admission serves one budget domain. A single daemon owns its own;
// a fleet scheduler shares one across every node, so the token budget —
// and the Retry-After hint computed from it — reflects the whole fleet's
// capacity for the tenant, not whichever node the request landed on.
type Admission struct {
	// limits and now are set once at construction and never reassigned;
	// they sit above mu, which guards only the tenant table below it.
	limits TenantLimits
	now    func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// NewAdmission builds an admission controller; a nil clock means
// time.Now.
func NewAdmission(limits TenantLimits, now func() time.Time) *Admission {
	if now == nil {
		now = time.Now
	}
	return &Admission{limits: limits, now: now, tenants: map[string]*tenantState{}}
}

func (a *Admission) stateLocked(tenant string) *tenantState {
	ts := a.tenants[tenant]
	if ts == nil {
		ts = &tenantState{tokens: a.limits.Burst, last: a.now()}
		a.tenants[tenant] = ts
	}
	return ts
}

// Allow spends one token for tenant. When the bucket is empty it returns
// false and how long until a token accrues (the Retry-After hint).
func (a *Admission) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.stateLocked(tenant)
	if a.limits.Rate <= 0 {
		ts.admitted++
		return true, 0
	}
	now := a.now()
	ts.tokens = math.Min(a.limits.Burst, ts.tokens+a.limits.Rate*now.Sub(ts.last).Seconds())
	ts.last = now
	if ts.tokens >= 1 {
		ts.tokens--
		ts.admitted++
		return true, 0
	}
	ts.throttled++
	return false, time.Duration((1 - ts.tokens) / a.limits.Rate * float64(time.Second))
}

// Note* record submission outcomes after the bucket decision.
// NoteCompleted and NoteFailed make Admission an OutcomeSink.

// NoteQueueFull records a submission admitted by the bucket but bounced
// off queue backpressure.
func (a *Admission) NoteQueueFull(tenant string) {
	a.bump(tenant, func(ts *tenantState) { ts.queueFull++ })
}

// NoteCompleted records a finished job.
func (a *Admission) NoteCompleted(tenant string) {
	a.bump(tenant, func(ts *tenantState) { ts.completed++ })
}

// NoteFailed records a failed job.
func (a *Admission) NoteFailed(tenant string) { a.bump(tenant, func(ts *tenantState) { ts.failed++ }) }

func (a *Admission) bump(tenant string, f func(*tenantState)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f(a.stateLocked(tenant))
}

// TenantCounters is a consistent snapshot of one tenant's accounting.
type TenantCounters struct {
	Tenant    string
	Admitted  int64
	Throttled int64
	QueueFull int64
	Completed int64
	Failed    int64
}

// Snapshot returns every tenant's counters, sorted by tenant name for
// deterministic exposition.
func (a *Admission) Snapshot() []TenantCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TenantCounters, 0, len(a.tenants))
	for name, ts := range a.tenants {
		out = append(out, TenantCounters{
			Tenant: name, Admitted: ts.admitted, Throttled: ts.throttled,
			QueueFull: ts.queueFull, Completed: ts.completed, Failed: ts.failed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
