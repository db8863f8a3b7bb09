package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Submission errors mapped to HTTP statuses by the server layer.
var (
	// ErrQueueFull is backpressure: every eligible board queue is at
	// capacity (429).
	ErrQueueFull = errors.New("serve: board queues full")
	// ErrDraining means the pool is shutting down (503).
	ErrDraining = errors.New("serve: draining")
	// ErrNoSuchBoard rejects a pin to a board id outside the pool (400).
	ErrNoSuchBoard = errors.New("serve: no such board")
	// ErrBoardQuarantined rejects a pin to a board taken out of service
	// by a fault escalation (409).
	ErrBoardQuarantined = errors.New("serve: board quarantined")
	// ErrNoHealthyBoard means every board is quarantined (503).
	ErrNoHealthyBoard = errors.New("serve: no healthy board")
)

// Job is one unit of work moving through a Pool. Jobs are created by
// Pool.Submit; ID, Done, Status and Cancel are valid from the moment
// Submit returns.
type Job struct {
	id     string
	tenant string
	spec   *workload.Spec
	trace  bool
	ctx    context.Context
	cancel context.CancelFunc

	// pinned jobs asked for one specific board; they are never rerun
	// elsewhere when that board is quarantined. Written once before the
	// first channel send, read by workers after the receive.
	pinned bool
	// scen is the spec's index in workload.Scenarios() (-1: none), set at
	// construction. charge is the estimate the job's board holds it at in
	// its queued work; written before each channel send, read by the
	// receiving worker.
	scen   int
	charge int64
	// done is created at construction and closed exactly once (under
	// mu, in finish); waiting on it needs no lock.
	done chan struct{}

	mu        sync.Mutex
	state     string
	board     int
	errMsg    string
	faultKind string
	requeues  int
	result    *JobResult
}

// ID returns the pool-assigned job id.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel cancels the job's context. Cancellation is advisory: a queued
// job fails when its worker picks it up; a running or finished job is
// unaffected (the simulation is not preemptible mid-run).
func (j *Job) Cancel() { j.cancel() }

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
}

func (j *Job) finish(res *JobResult, err error) {
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		if esc, ok := fault.AsEscalation(err); ok {
			j.faultKind = esc.Kind.String()
		}
	} else {
		j.state = StateDone
		j.result = res
	}
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// Status returns a consistent snapshot of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Tenant: j.tenant, State: j.state, Board: j.board,
		Error: j.errMsg, Result: j.result,
		FaultKind: j.faultKind, Requeues: j.requeues,
	}
}

// noteFault records the typed fault reason on a job that never ran
// because its board was already quarantined.
func (j *Job) noteFault(kind string) {
	j.mu.Lock()
	j.faultKind = kind
	j.mu.Unlock()
}

// board is one execution slot: a config, a bounded queue and the
// accumulated accounting of everything it ran.
type board struct {
	id    int
	cfg   BoardConfig
	queue chan *Job

	// stack is the stack of the board's last job; the next job's is built
	// on its hardware and in its memory (baseline.NewStack's used). nil until
	// the first job builds one, and discarded — hardware and memory
	// included — whenever a job fails. Owned by the board's worker goroutine exclusively; like
	// pool.wg/gate it sits above mu because the fields below mu are the
	// ones mu guards.
	stack *baseline.Stack

	mu      sync.Mutex
	current string // running job id ("" when idle)
	done    int64
	failed  int64
	agg     core.MetricsSnapshot // summed device metrics across jobs
	// quarantined boards accept nothing and run nothing: a fault
	// escalation exhausted the ledger's retry budget here. quarKind is
	// the first escalated kind; escalations counts escalated jobs.
	quarantined bool
	quarKind    string
	escalations int64
	// warm mirrors stack != nil for readers outside the worker goroutine;
	// warmResets/coldResets count jobs run on the board's recycled
	// hardware vs. on new hardware (the first job, or the first after a
	// failure).
	warm       bool
	warmResets int64
	coldResets int64
	// svc is the board's own service record, one mean per scenario.
	// queuedWork sums the charges of the jobs queued on the board and the
	// one it runs: added when a job is enqueued, taken off when the job
	// leaves — finished, failed or requeued to another board.
	svc        [workload.NumScenarios]ServiceMean
	queuedWork int64
}

// ServiceMean is a board's record of one class of jobs: the summed
// virtual makespan and the count of those it completed. Its estimate, the
// mean, is what the board charges a job of the class at. A live board
// keeps one per scenario; a simulated board (fleet.Simulate) one per job
// class.
type ServiceMean struct{ sum, n int64 }

// Observe records one completed job's makespan.
func (m *ServiceMean) Observe(ns int64) { m.sum += ns; m.n++ }

// Estimate returns the mean makespan of the completed jobs, 0 before the
// first.
func (m ServiceMean) Estimate() int64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

// estimateLocked returns the board's estimate for a job of scenario scen;
// 0 for scen < 0. Caller holds b.mu.
func (b *board) estimateLocked(scen int) int64 {
	if scen < 0 {
		return 0
	}
	return b.svc[scen].Estimate()
}

// release takes a job's charge off the board's queued work.
func (b *board) release(charge int64) {
	b.mu.Lock()
	b.queuedWork -= charge
	b.mu.Unlock()
}

// noteReset records whether a job ran on the board's recycled hardware.
func (b *board) noteReset(warm bool) {
	b.mu.Lock()
	if warm {
		b.warmResets++
	} else {
		b.coldResets++
	}
	b.mu.Unlock()
}

// quarantine takes the board out of service (idempotent; the first
// escalated kind sticks as the reason).
func (b *board) quarantine(kind string) {
	b.mu.Lock()
	b.current = ""
	b.escalations++
	if !b.quarantined {
		b.quarantined = true
		b.quarKind = kind
	}
	b.mu.Unlock()
}

func (b *board) quarantineState() (kind string, quarantined bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quarKind, b.quarantined
}

func (b *board) isQuarantined() bool {
	_, q := b.quarantineState()
	return q
}

func (b *board) info() BoardInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	state := "idle"
	if b.current != "" {
		state = "busy"
	}
	if b.quarantined {
		state = "quarantined"
	}
	bi := BoardInfo{
		ID: b.id, Manager: b.cfg.Manager, Cols: b.cfg.Cols, Rows: b.cfg.Rows,
		State: state, CurrentJob: b.current,
		QueueDepth: len(b.queue), QueueCap: cap(b.queue),
		JobsDone: b.done, JobsFailed: b.failed,
		Quarantined: b.quarantined, FaultKind: b.quarKind, Escalations: b.escalations,
		Warm: b.warm, WarmResets: b.warmResets, ColdResets: b.coldResets,
		QueuedWorkNS: b.queuedWork,
	}
	for s := range bi.ServiceEstNS {
		bi.ServiceEstNS[s] = b.estimateLocked(s)
	}
	return bi
}

// PoolOptions parameterizes a Pool beyond its board configs.
type PoolOptions struct {
	// Outcomes counts each tenant's completed and failed jobs, after the
	// admission decision; nil means no accounting. A fleet scheduler hands
	// one shared Admission to every node's pool so the accounting — and
	// the token budget it informs — stays fleet-wide.
	Outcomes *Admission
	// Cache is the strip-compile cache; nil builds a private one. A
	// fleet shares one cache across its nodes' pools, so a circuit
	// compiled on any node is warm everywhere.
	Cache *compile.StripCache
}

// Pool owns the boards and the job store. One worker goroutine per
// board drains that board's queue; boards never share simulation state,
// only the concurrency-safe compile cache and the read-only task sets of
// the set cache.
type Pool struct {
	boards   []*board
	cache    *compile.StripCache
	outcomes *Admission // nil: no accounting
	// sets memoizes the task sets the boards' jobs build: every board of
	// the pool runs the same *Set for equal specs. Self-synchronized.
	sets workload.SetCache

	// wg and gate are self-synchronized and sit above mu: fields below
	// mu are the ones mu guards. gate, when non-nil, makes every worker
	// consume one token before running each job — a test hook to hold
	// queues full deterministically. Both are written before Start().
	wg   sync.WaitGroup
	gate chan struct{}

	mu       sync.Mutex
	jobs     *JobTable[*Job]
	requeues int64 // jobs handed to another board after a quarantine
	draining bool
	// svc records completed jobs' virtual service time (makespan, ns)
	// across all boards, feeding the /metrics summary; tenantSvc holds
	// the same record sliced per tenant. Both are bounded: at most 960
	// buckets however many jobs the daemon has served, and at most
	// maxTenantRows tenants plus the otherTenants row.
	svc       *stats.LatencyRecorder
	tenantSvc map[string]*stats.LatencyRecorder
}

// maxTenantRows bounds each per-tenant table (the service-time
// recorders here, whose rows are 128 B empty and at most about 7.8 KB,
// and Admission's counters). The tenants seen after a table is full
// share its otherTenants row, whose name the API refuses (tenantError),
// so no tenant's own row can be taken for it.
const (
	maxTenantRows = 256
	otherTenants  = ""
)

// observeService records one completed job's virtual service time,
// both in the pool-wide sample and the tenant's slice of it.
func (p *Pool) observeService(tenant string, ns int64) {
	p.mu.Lock()
	p.svc.Observe(ns)
	tenantRow(p.tenantSvc, tenant, stats.NewLatencyRecorder).Observe(ns)
	p.mu.Unlock()
}

// tenantRow returns tenant's row of a per-tenant table, building it with
// mk; once the table holds maxTenantRows rows, a tenant without one
// shares the otherTenants row.
func tenantRow[T any](rows map[string]*T, tenant string, mk func() *T) *T {
	r := rows[tenant]
	if r == nil {
		if len(rows) >= maxTenantRows {
			tenant = otherTenants
			r = rows[tenant]
		}
		if r == nil {
			r = mk()
			rows[tenant] = r
		}
	}
	return r
}

// ServiceSummary is a slice of the service-time sample, in virtual
// nanoseconds: the p50/p95/p99 quantiles, each a bucket's upper bound (at
// most 1/16 above the exact value, never above the observed maximum),
// and the exact sum and count. Tenant names the tenant whose slice it
// is, empty for the whole sample.
type ServiceSummary struct {
	Tenant string
	P50    int64
	P95    int64
	P99    int64
	Sum    int64
	Count  int64
}

// summarize is the summary of r, tenant's slice of the sample.
func summarize(tenant string, r *stats.LatencyRecorder) ServiceSummary {
	return ServiceSummary{
		Tenant: tenant, P50: r.Quantile(0.5), P95: r.Quantile(0.95), P99: r.Quantile(0.99),
		Sum: r.Sum(), Count: r.Count(),
	}
}

// ServiceStats returns the summary of the whole service-time sample.
func (p *Pool) ServiceStats() ServiceSummary {
	p.mu.Lock()
	defer p.mu.Unlock()
	return summarize("", p.svc)
}

// TenantServiceStats returns per-tenant service-time summaries, sorted
// by tenant so emission order is deterministic.
func (p *Pool) TenantServiceStats() []ServiceSummary {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ServiceSummary, 0, len(p.tenantSvc))
	for tenant, r := range p.tenantSvc {
		out = append(out, summarize(tenant, r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// NewPool builds a pool over the given boards. Call Start before
// expecting work to run; until then submissions queue but nothing
// executes (tests use that window to fill queues deterministically).
func NewPool(cfgs []BoardConfig, opts PoolOptions) (*Pool, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("serve: a pool needs at least one board")
	}
	cache := opts.Cache
	if cache == nil {
		cache = compile.NewStripCache(compile.DefaultCacheCapacity)
	}
	p := &Pool{
		cache:     cache,
		outcomes:  opts.Outcomes,
		jobs:      NewJobTable[*Job]("j"),
		svc:       stats.NewLatencyRecorder(),
		tenantSvc: map[string]*stats.LatencyRecorder{},
	}
	for i, bc := range cfgs {
		if err := bc.Validate(); err != nil {
			return nil, fmt.Errorf("board %d: %w", i, err)
		}
		p.boards = append(p.boards, &board{id: i, cfg: bc, queue: make(chan *Job, bc.QueueDepth)})
	}
	return p, nil
}

// Start launches one worker goroutine per board.
func (p *Pool) Start() {
	for _, b := range p.boards {
		p.wg.Add(1)
		go p.worker(b)
	}
}

func (p *Pool) worker(b *board) {
	defer p.wg.Done()
	for j := range b.queue {
		if p.gate != nil {
			<-p.gate
		}
		p.runOne(b, j)
	}
}

func (p *Pool) runOne(b *board, j *Job) {
	if err := j.ctx.Err(); err != nil {
		// Canceled or deadline-expired while queued: fail without
		// spending board time on it.
		p.failJob(b, j, fmt.Errorf("job %s not run: %w", j.id, err))
		return
	}
	if kind, quarantined := b.quarantineState(); quarantined {
		// The board was quarantined with this job still in its queue:
		// hand the job to a healthy board, or fail it with the typed
		// fault reason so the caller can tell casualty from bug.
		if p.requeue(b, j) {
			return
		}
		j.noteFault(kind)
		p.failJob(b, j, fmt.Errorf("serve: board %d quarantined (%s); no healthy board for job %s", b.id, kind, j.id))
		return
	}
	b.mu.Lock()
	b.current = j.id
	b.mu.Unlock()
	j.setRunning()

	res, err := p.runWarm(b, j)

	if esc, ok := fault.AsEscalation(err); ok {
		// Retry budget exhausted on this board: take it out of service
		// and rerun the job on a healthy one when possible. Pinned jobs
		// fail in place — the client asked for exactly this board.
		b.quarantine(esc.Kind.String())
		if p.requeue(b, j) {
			return
		}
	}
	if err != nil {
		p.failJob(b, j, err)
		return
	}
	b.mu.Lock()
	b.current = ""
	b.done++
	b.queuedWork -= j.charge
	if j.scen >= 0 {
		b.svc[j.scen].Observe(int64(res.Makespan))
	}
	for _, m := range res.Metrics {
		b.agg.Accumulate(m)
	}
	b.mu.Unlock()
	p.observeService(j.tenant, int64(res.Makespan))
	p.outcomes.NoteCompleted(j.tenant)
	p.finish(j, res, nil)
}

// failJob is the one failure tail: the board and the tenant count the
// job before finish closes its done channel, so a client that sees the
// terminal status finds the job in /v1/boards and /metrics already.
func (p *Pool) failJob(b *board, j *Job, err error) {
	b.mu.Lock()
	b.current = ""
	b.failed++
	b.queuedWork -= j.charge
	b.mu.Unlock()
	p.outcomes.NoteFailed(j.tenant)
	p.finish(j, nil, err)
}

// runWarm executes j on b through the job body: on the hardware of the
// board's last job when its stack is resident, on new hardware otherwise.
// Any failure — build error, fault escalation, panic — discards the
// stack, hardware and memory included: a device or a table abandoned
// mid-job is not one to build on (a quarantined board thus requeues
// cold). Runs on b's worker
// goroutine, the sole owner of b.stack.
func (p *Pool) runWarm(b *board, j *Job) (*JobResult, error) {
	warm := b.stack != nil
	st, res, err := runSpec(&p.sets, p.cache, b.cfg, b.stack, j.spec, j.trace)
	if st != nil {
		b.noteReset(warm)
	}
	if err != nil {
		st = nil
	}
	b.stack = st
	b.mu.Lock()
	b.warm = st != nil
	b.mu.Unlock()
	return res, err
}

// SubmitArgs describes one submission into a Pool.
type SubmitArgs struct {
	// Tenant is the submitting tenant (accounting is per tenant).
	Tenant string
	// Spec is the workload to run.
	Spec *workload.Spec
	// Trace includes the merged timeline in the result.
	Trace bool
	// Board pins the job to one board id; nil lets the pool pick the
	// healthy board where the job finishes first.
	Board *int
	// Ctx bounds the job's whole lifetime (nil means Background); a
	// deadline set here still fires while queued. Cancel, when non-nil,
	// must cancel Ctx: the pool invokes it when the job reaches a
	// terminal state. When Cancel is nil the pool derives its own. A
	// fleet scheduler passes a per-attempt context derived from the
	// fleet job's, so one attempt finishing never cancels the next.
	Ctx    context.Context
	Cancel context.CancelFunc
}

// Submit enqueues a job and returns it. On error the job was not
// accepted and its context, when pool-derived, is already canceled.
func (p *Pool) Submit(args SubmitArgs) (*Job, error) {
	ctx, cancel := args.Ctx, args.Cancel
	if ctx == nil {
		ctx = context.Background()
	}
	if cancel == nil {
		ctx, cancel = context.WithCancel(ctx)
	}
	j := &Job{
		tenant: args.Tenant, spec: args.Spec, trace: args.Trace,
		ctx: ctx, cancel: cancel, scen: -1,
		state: StateQueued, done: make(chan struct{}),
	}
	if args.Spec != nil { // a nil spec fails on the board, as a panicking job
		j.scen = workload.ScenarioIndex(args.Spec.Scenario)
	}
	if _, err := p.submit(j, args.Board); err != nil {
		cancel()
		return nil, err
	}
	return j, nil
}

// submit enqueues a job: onto the pinned board when pin is non-nil,
// otherwise onto the board pick chooses. A full queue — or all full
// queues — is backpressure, not an error of the job. The whole decision
// runs under the pool lock so it cannot interleave with drain closing
// the queues.
func (p *Pool) submit(j *Job, pin *int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return 0, ErrDraining
	}
	var target *board
	if pin != nil {
		if *pin < 0 || *pin >= len(p.boards) {
			return 0, fmt.Errorf("%w: %d", ErrNoSuchBoard, *pin)
		}
		target = p.boards[*pin]
		if target.isQuarantined() {
			return 0, fmt.Errorf("%w: board %d", ErrBoardQuarantined, *pin)
		}
		j.pinned = true
	} else {
		var err error
		if target, _, err = p.pick(j.scen); err != nil {
			return 0, err
		}
		if target == nil {
			return 0, ErrQueueFull
		}
	}
	j.id = p.jobs.NextID()
	if !p.enqueue(target, j) {
		return 0, ErrQueueFull
	}
	p.jobs.Put(j)
	return target.id, nil
}

// BoardCost is what placing a job on one board costs: when the job would
// finish there — the board's queued work plus the job's estimate on it —
// and how many jobs the board holds, queued or running.
type BoardCost struct {
	FinishNS int64
	Load     int
	ID       int
}

// Cheaper is the one placement rule, shared by Pool.pick and a simulated
// node (fleet.Simulate): board a takes the job over board b when it
// finishes the job first, then when it holds fewer jobs, then when its id
// is lower. Before a board has completed a job's scenario the job's
// estimate there is 0, so boards with no history compare by load alone.
func Cheaper(a, b BoardCost) bool {
	if a.FinishNS != b.FinishNS {
		return a.FinishNS < b.FinishNS
	}
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	return a.ID < b.ID
}

// pick returns the healthy board with queue room that Cheaper ranks first
// for a job of scenario scen, and its cost there. It returns nil when
// every healthy board's queue is full, and ErrNoHealthyBoard when no board
// is healthy. Caller holds p.mu, under which queues only drain, so the
// board it returns has room.
func (p *Pool) pick(scen int) (*board, int64, error) {
	var best *board
	var bestCost BoardCost
	healthy := false
	for _, b := range p.boards {
		b.mu.Lock()
		quarantined, busy := b.quarantined, b.current != ""
		c := BoardCost{FinishNS: b.queuedWork + b.estimateLocked(scen), ID: b.id}
		b.mu.Unlock()
		if quarantined {
			continue
		}
		healthy = true
		c.Load = len(b.queue)
		if c.Load == cap(b.queue) {
			continue
		}
		if busy {
			c.Load++
		}
		if best == nil || Cheaper(c, bestCost) {
			best, bestCost = b, c
		}
	}
	if !healthy {
		return nil, 0, ErrNoHealthyBoard
	}
	return best, bestCost.FinishNS, nil
}

// Quote is what the pool would place a job of one scenario at if it were
// submitted now, read from outside: a fleet ranks nodes by it, so the one
// placement rule lives in pick.
type Quote struct {
	// FinishNS is pick's cost: the least queued work plus the job's
	// estimate over the healthy boards with queue room; -1 when none has
	// room.
	FinishNS int64
	// EstNS is the job's least estimate among the healthy boards; 0 while
	// none has completed a job of its scenario.
	EstNS int64
}

// Quote prices a job of scenario scen (-1: none) as pick would place it.
func (p *Pool) Quote(scen int) Quote {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := Quote{FinishNS: -1}
	if b, cost, _ := p.pick(scen); b != nil {
		q.FinishNS = cost
	}
	for _, b := range p.boards {
		b.mu.Lock()
		if est := b.estimateLocked(scen); !b.quarantined && est > 0 && (q.EstNS == 0 || est < q.EstNS) {
			q.EstNS = est
		}
		b.mu.Unlock()
	}
	return q
}

// enqueue charges j's estimate on b to b's queued work and sends j to b's
// queue. Every job field is written before the send, which
// happens-before the worker's receive, so the worker reads them without
// holding j.mu. On a full queue it undoes both and returns false.
func (p *Pool) enqueue(b *board, j *Job) bool {
	b.mu.Lock()
	charge := b.estimateLocked(j.scen)
	b.queuedWork += charge
	b.mu.Unlock()
	prev := j.charge
	j.charge = charge
	j.mu.Lock()
	j.board = b.id
	j.mu.Unlock()
	select {
	case b.queue <- j:
		return true
	default:
	}
	j.charge = prev
	b.release(charge)
	return false
}

// requeue hands a job displaced by a quarantine of board from to a
// healthy board, moving its charge there. Bounded: each job moves at most
// len(boards)-1 times, so a campaign that quarantines every board still
// terminates. Runs under the pool lock so it cannot interleave with drain
// closing the queues.
func (p *Pool) requeue(from *board, j *Job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining || j.pinned {
		return false
	}
	j.mu.Lock()
	exhausted := j.requeues >= len(p.boards)-1
	j.mu.Unlock()
	if exhausted {
		return false
	}
	target, _, _ := p.pick(j.scen) // no healthy board or no room: nil either way
	if target == nil {
		return false
	}
	charge := j.charge
	j.mu.Lock()
	j.state = StateQueued
	j.requeues++
	j.mu.Unlock()
	if !p.enqueue(target, j) {
		j.mu.Lock()
		j.requeues--
		j.mu.Unlock()
		return false
	}
	from.release(charge)
	p.requeues++
	return true
}

// RequeueCount reports jobs handed to another board after a quarantine.
func (p *Pool) RequeueCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requeues
}

// Job returns the job by id, ErrJobExpired once its record has been
// dropped, or ErrNoSuchJob.
func (p *Pool) Job(id string) (*Job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobs.Get(id)
}

// finish starts j's retention in the job table and moves j to its
// terminal state. Retention starts before j's done channel closes, so
// jobs a client saw finish one after another expire in that order.
func (p *Pool) finish(j *Job, res *JobResult, err error) {
	p.mu.Lock()
	p.jobs.Finish(j.id)
	p.mu.Unlock()
	j.finish(res, err)
}

// BoardInfos returns a snapshot of every board, in board-id order.
func (p *Pool) BoardInfos() []BoardInfo {
	infos := make([]BoardInfo, 0, len(p.boards))
	for _, b := range p.boards {
		infos = append(infos, b.info())
	}
	return infos
}

// CacheStats reports the pool's strip-cache counters.
func (p *Pool) CacheStats() compile.CacheStats { return p.cache.Stats() }

// Drain stops intake, lets every queued job finish, and waits for the
// workers to exit. Safe to call more than once.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		// Closing under the lock excludes in-flight submit sends.
		for _, b := range p.boards {
			close(b.queue)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// IsDraining reports whether Drain has begun.
func (p *Pool) IsDraining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}
