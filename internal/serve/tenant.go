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

// TenantCounters is one tenant's admission/outcome accounting: a row of
// Admission's table and, with its Tenant set, of its Snapshot.
type TenantCounters struct {
	Tenant    string
	Admitted  int64 // passed the bucket (may still bounce off a full queue)
	Throttled int64 // rejected by the bucket
	QueueFull int64 // admitted by the bucket, rejected by queue backpressure
	Completed int64
	Failed    int64
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// minBucketSweep is the bucket count below which Allow never sweeps.
const minBucketSweep = maxTenantRows

// Admission is the long-term scheduler of the service: it decides, per
// tenant, whether a submission may enter the system at all. The clock is
// injectable so tests (and the metrics golden file) are deterministic.
//
// One Admission serves one budget domain. A single daemon owns its own;
// a fleet scheduler shares one across every node, so the token budget —
// and the Retry-After hint computed from it — reflects the whole fleet's
// capacity for the tenant, not whichever node the request landed on.
//
// Neither table grows with the number of tenant names ever seen. counts
// holds maxTenantRows tenants plus the otherTenants row, like the pool's
// service-time table: each entry is a /metrics row. buckets is swept of
// every bucket that has refilled to Burst — a full bucket is exactly the
// one a new tenant gets, so dropping it changes no verdict — so it holds
// about the tenants seen in the last Burst/Rate seconds. A sweep runs
// when a new bucket would reach sweepAt, which is then set to twice what
// the sweep kept: O(1) amortized per new bucket.
type Admission struct {
	// limits and now are set once at construction and never reassigned;
	// they sit above mu, which guards the tables below it.
	limits TenantLimits
	now    func() time.Time

	mu      sync.Mutex
	counts  map[string]*TenantCounters
	buckets map[string]*bucket
	sweepAt int
}

// NewAdmission builds an admission controller; a nil clock means
// time.Now.
func NewAdmission(limits TenantLimits, now func() time.Time) *Admission {
	if now == nil {
		now = time.Now
	}
	return &Admission{
		limits: limits, now: now,
		counts:  map[string]*TenantCounters{},
		buckets: map[string]*bucket{},
		sweepAt: minBucketSweep,
	}
}

func newTenantCounts() *TenantCounters { return &TenantCounters{} }

// Allow spends one token for tenant. When the bucket is empty it returns
// false and how long until a token accrues (the Retry-After hint).
func (a *Admission) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := tenantRow(a.counts, tenant, newTenantCounts)
	if a.limits.Rate <= 0 {
		c.Admitted++
		return true, 0
	}
	now := a.now()
	b := a.buckets[tenant]
	if b == nil {
		if len(a.buckets) >= a.sweepAt {
			a.sweepLocked(now)
		}
		b = &bucket{tokens: a.limits.Burst, last: now}
		a.buckets[tenant] = b
	}
	b.tokens = a.refill(b, now)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		c.Admitted++
		return true, 0
	}
	c.Throttled++
	return false, time.Duration((1 - b.tokens) / a.limits.Rate * float64(time.Second))
}

// refill is b's token count at now.
func (a *Admission) refill(b *bucket, now time.Time) float64 {
	return math.Min(a.limits.Burst, b.tokens+a.limits.Rate*now.Sub(b.last).Seconds())
}

// sweepLocked drops every bucket that has refilled to Burst by now.
func (a *Admission) sweepLocked(now time.Time) {
	for tenant, b := range a.buckets {
		if a.refill(b, now) >= a.limits.Burst {
			delete(a.buckets, tenant)
		}
	}
	a.sweepAt = max(minBucketSweep, 2*len(a.buckets))
}

// Note* record submission outcomes after the bucket decision; on a nil
// Admission they count nothing.

// NoteQueueFull records a submission admitted by the bucket but bounced
// off queue backpressure.
func (a *Admission) NoteQueueFull(tenant string) {
	a.bump(tenant, func(c *TenantCounters) { c.QueueFull++ })
}

// NoteCompleted records a finished job.
func (a *Admission) NoteCompleted(tenant string) {
	a.bump(tenant, func(c *TenantCounters) { c.Completed++ })
}

// NoteFailed records a failed job.
func (a *Admission) NoteFailed(tenant string) { a.bump(tenant, func(c *TenantCounters) { c.Failed++ }) }

func (a *Admission) bump(tenant string, f func(*TenantCounters)) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f(tenantRow(a.counts, tenant, newTenantCounts))
}

// Snapshot returns every tenant's counters, sorted by tenant name for
// deterministic exposition; the otherTenants row ("") sums the tenants
// past the table's cap.
func (a *Admission) Snapshot() []TenantCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TenantCounters, 0, len(a.counts))
	for name, c := range a.counts {
		row := *c
		row.Tenant = name
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
