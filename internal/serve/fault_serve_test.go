package serve

// Graceful degradation under injected faults: a board whose ledger
// escalates is quarantined, its jobs rerun on healthy boards or fail
// with a typed reason, and the quarantine is visible on /v1/boards and
// /metrics. Fault plans here are scripted (retries=0, fault on the
// first config op), so board outcomes are exact, not probabilistic.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/fault"
)

// escalatingPlan always escalates on the first configuration op.
func escalatingPlan(t *testing.T) *fault.Plan {
	t.Helper()
	plan, err := fault.ParseSpec("seed=1,retries=0,config-error@1")
	if err != nil {
		t.Fatal(err)
	}
	return &plan
}

// TestQuarantineAndRequeue: board 0 escalates on its first job; the
// pool quarantines it and reruns every displaced job — the escalated
// one and the ones still queued behind it — on healthy board 1.
func TestQuarantineAndRequeue(t *testing.T) {
	faulty := DefaultBoardConfig()
	faulty.Faults = escalatingPlan(t)
	healthy := DefaultBoardConfig()
	s := newTestServer(t, Config{Boards: []BoardConfig{faulty, healthy}, Tenant: TenantLimits{Rate: 0}})

	// Workers not started yet: four submissions alternate over the two
	// idle boards, so board 0 holds two of them when it quarantines.
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, submitOK(t, s, "acme", "multimedia"))
	}
	s.Start()
	for _, j := range jobs {
		waitDone(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s: state %s (%s)", st.ID, st.State, st.Error)
		} else if st.Board != 1 {
			t.Errorf("job %s finished on board %d, want 1 (0 is quarantined)", st.ID, st.Board)
		}
	}
	if n := s.pool.RequeueCount(); n != 2 {
		t.Errorf("requeues = %d, want 2 (escalated job + queued-behind job)", n)
	}

	rec := do(t, s, "GET", "/v1/boards", "")
	var infos []BoardInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if !infos[0].Quarantined || infos[0].State != "quarantined" || infos[0].FaultKind != "config-error" {
		t.Errorf("board 0 not quarantined as expected: %+v", infos[0])
	}
	if infos[0].Escalations != 1 {
		t.Errorf("board 0 escalations = %d, want 1", infos[0].Escalations)
	}
	if infos[0].CurrentJob != "" {
		t.Errorf("quarantined board 0 still shows current job %q after its job moved", infos[0].CurrentJob)
	}
	if infos[1].Quarantined || infos[1].JobsDone != 4 {
		t.Errorf("board 1 should have run all 4 jobs: %+v", infos[1])
	}

	rec = do(t, s, "GET", "/metrics", "")
	for _, want := range []string{
		`vfpgad_board_quarantined{board="0",manager="dynamic"} 1`,
		`vfpgad_board_quarantined{board="1",manager="dynamic"} 0`,
		`vfpgad_job_requeues_total 2`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
	s.Drain()
}

// TestPinnedJobFailsTyped: a job pinned to the board that escalates is
// never rerun elsewhere — it fails with the fault kind — and further
// pins to the quarantined board are 409.
func TestPinnedJobFailsTyped(t *testing.T) {
	faulty := DefaultBoardConfig()
	faulty.Faults = escalatingPlan(t)
	s := newTestServer(t, Config{Boards: []BoardConfig{faulty, DefaultBoardConfig()}, Tenant: TenantLimits{Rate: 0}})
	s.Start()
	defer s.Drain()

	body := strings.Replace(submitBody(t, "acme", "multimedia"), `{"tenant"`, `{"board":0,"tenant"`, 1)
	rec := do(t, s, "POST", "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("pinned submit: got %d (%s)", rec.Code, rec.Body)
	}
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	j, _ := s.pool.Job(resp.ID)
	waitDone(t, j)
	st := j.Status()
	if st.State != StateFailed || st.FaultKind != "config-error" || st.Requeues != 0 {
		t.Errorf("pinned escalated job: %+v, want failed/config-error/0 requeues", st)
	}
	if !strings.Contains(st.Error, "fault:") {
		t.Errorf("error %q lacks the typed fault prefix", st.Error)
	}

	// The board is now quarantined: pinning to it is a 409 conflict.
	if rec := do(t, s, "POST", "/v1/jobs", body); rec.Code != http.StatusConflict {
		t.Errorf("pin to quarantined board: got %d, want 409", rec.Code)
	}
	// Unpinned work still flows to the healthy board.
	good := submitOK(t, s, "acme", "multimedia")
	waitDone(t, good)
	if gst := good.Status(); gst.State != StateDone || gst.Board != 1 {
		t.Errorf("unpinned job after quarantine: %+v", gst)
	}
}

// TestAllBoardsQuarantined: with no healthy board left, a displaced job
// fails with its typed reason after at most len(boards)-1 moves, and new
// submissions get 503.
func TestAllBoardsQuarantined(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("boards=%d", n), func(t *testing.T) {
			faulty := DefaultBoardConfig()
			faulty.Faults = escalatingPlan(t)
			boards := make([]BoardConfig, n)
			for i := range boards {
				boards[i] = faulty
			}
			s := newTestServer(t, Config{Boards: boards, Tenant: TenantLimits{Rate: 0}})
			var jobs []*Job
			for i := 0; i < 2*n; i++ {
				jobs = append(jobs, submitOK(t, s, "acme", "multimedia"))
			}
			s.Start()
			defer s.Drain()
			for _, j := range jobs {
				waitDone(t, j)
				st := j.Status()
				if st.State != StateFailed || st.FaultKind != "config-error" {
					t.Errorf("job %s: %+v, want failed/config-error", st.ID, st)
				}
				if st.Requeues > n-1 {
					t.Errorf("job %s moved %d times, bound is %d", st.ID, st.Requeues, n-1)
				}
			}
			if rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "acme", "multimedia")); rec.Code != http.StatusServiceUnavailable {
				t.Errorf("submit with every board quarantined: got %d, want 503", rec.Code)
			}
		})
	}
}

// TestQuarantineKeepsFirstKind: a second escalation on a quarantined
// board counts, but the first escalated kind stays its reason.
func TestQuarantineKeepsFirstKind(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0}})
	b := s.pool.boards[0]
	b.quarantine("config-error")
	b.quarantine("readback-flip")
	if bi := b.info(); !bi.Quarantined || bi.FaultKind != "config-error" || bi.Escalations != 2 {
		t.Errorf("after two escalations: quarantined=%v kind=%q escalations=%d, want true/config-error/2",
			bi.Quarantined, bi.FaultKind, bi.Escalations)
	}
}

// TestRequeueBound: a job that has moved len(boards)-1 times is not moved
// again, even with a healthy board that has room. Quarantines are
// permanent today, so no campaign reaches the bound with a board left to
// move to; the bound is the requeue's own contract, checked here.
func TestRequeueBound(t *testing.T) {
	s := newTestServer(t, Config{Boards: []BoardConfig{DefaultBoardConfig(), DefaultBoardConfig(), DefaultBoardConfig()}, Tenant: TenantLimits{Rate: 0}})
	j := submitOK(t, s, "acme", "multimedia")
	from := s.pool.boards[j.Status().Board]
	<-from.queue // the displaced job, as a quarantined board's worker finds it
	last := len(s.pool.boards) - 1
	j.requeues = last
	if s.pool.requeue(from, j) {
		t.Fatalf("requeue moved a job that had already moved %d times", last)
	}
	j.requeues = last - 1
	if !s.pool.requeue(from, j) {
		t.Fatal("requeue refused a job below the bound")
	}
	s.Start()
	waitDone(t, j)
	if st := j.Status(); st.State != StateDone || st.Requeues != last {
		t.Errorf("requeued job: %+v, want done after %d moves", st, last)
	}
	s.Drain()
}

// TestConfigFaultsDerivesPerBoard: a pool-level plan fans out into
// distinct per-board plans (independent failure streams), without
// overriding a board's own plan.
func TestConfigFaultsDerivesPerBoard(t *testing.T) {
	plan, err := fault.ParseSpec("seed=42,config-error=0.5")
	if err != nil {
		t.Fatal(err)
	}
	own := escalatingPlan(t)
	bc := DefaultBoardConfig()
	withOwn := DefaultBoardConfig()
	withOwn.Faults = own
	s := newTestServer(t, Config{Boards: []BoardConfig{bc, bc, withOwn}, Faults: &plan})
	b0, b1, b2 := s.pool.boards[0].cfg.Faults, s.pool.boards[1].cfg.Faults, s.pool.boards[2].cfg.Faults
	if b0 == nil || b1 == nil {
		t.Fatal("pool-level plan not fanned out")
	}
	if b0.Seed == b1.Seed {
		t.Error("derived board plans share a seed")
	}
	if b2 != own {
		t.Error("board-level plan overridden by pool-level one")
	}
}
