package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/workload"
)

// TestJobTableRetention drives the table directly: finished jobs are
// dropped oldest first beyond the cap, a job still in flight is kept
// however old it is, and a dropped id is told apart from an unissued one
// without a tombstone.
func TestJobTableRetention(t *testing.T) {
	tbl := NewJobTable[int]("j")
	if got := tbl.NextID(); got != "j000001" {
		t.Fatalf("first id %q", got)
	}
	straggler := tbl.Put(0) // j000001 never finishes
	const extra = 10
	for i := 1; i <= JobRetention+extra; i++ {
		id := tbl.Put(i)
		if id != fmt.Sprintf("j%06d", i+1) {
			t.Fatalf("id %q for job %d", id, i)
		}
		tbl.Finish(id)
		if tbl.Len() > JobRetention+1 {
			t.Fatalf("after %d jobs the table holds %d, cap is %d + 1 in flight", i, tbl.Len(), JobRetention)
		}
	}
	if tbl.Len() != JobRetention+1 {
		t.Errorf("table holds %d jobs, want %d finished + 1 in flight", tbl.Len(), JobRetention)
	}
	if j, err := tbl.Get(straggler); err != nil || j != 0 {
		t.Errorf("in-flight job below the dropped mark: got %v, %v", j, err)
	}
	for i := 1; i <= extra; i++ {
		if _, err := tbl.Get(fmt.Sprintf("j%06d", i+1)); !errors.Is(err, ErrJobExpired) {
			t.Errorf("dropped job %d: got %v, want ErrJobExpired", i, err)
		}
	}
	if j, err := tbl.Get(fmt.Sprintf("j%06d", extra+2)); err != nil || j != extra+1 {
		t.Errorf("oldest retained job: got %v, %v", j, err)
	}
	for _, id := range []string{tbl.NextID(), "j", "jx", "f000001", "", "j-5", "j000000"} {
		if _, err := tbl.Get(id); !errors.Is(err, ErrNoSuchJob) {
			t.Errorf("Get(%q) = %v, want ErrNoSuchJob", id, err)
		}
	}
	// An id issued and then withdrawn leaves no entry behind.
	id := tbl.Put(-1)
	tbl.Remove(id)
	if _, err := tbl.Get(id); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("removed job: got %v, want ErrNoSuchJob", err)
	}
}

// TestJobIDFormat holds NextID to fmt.Sprintf("%s%06d") where the padding
// starts, ends and overflows, and to one allocation an id.
func TestJobIDFormat(t *testing.T) {
	for _, prefix := range []string{"j", "n12-j"} {
		for _, seq := range []int64{1, 999_999, 1_000_000, 1 << 40} {
			tbl := NewJobTable[int](prefix)
			tbl.seq = seq - 1
			if got, want := tbl.NextID(), fmt.Sprintf("%s%06d", prefix, seq); got != want {
				t.Errorf("NextID at %d: got %q, want %q", seq, got, want)
			}
		}
	}
	if raceEnabled {
		t.Skip("the race detector's allocations are not the path's")
	}
	tbl := NewJobTable[int]("j")
	if n := testing.AllocsPerRun(100, func() { tbl.next = ""; tbl.NextID() }); n != 1 {
		t.Errorf("NextID allocates %.0f times, want 1", n)
	}
}

// tinyJob is the cheapest job the daemon accepts: one task, one
// evaluation of one circuit.
func tinyJob(t *testing.T) string {
	t.Helper()
	b, err := json.Marshal(SubmitRequest{Tenant: "soak", Workload: workload.Spec{
		Scenario:  "synthetic",
		Synthetic: &workload.SyntheticConfig{Tasks: 1, OpsPerTask: 1, EvalsPerOp: 1, Pool: []string{"parity16"}, Seed: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerJobTableBounded runs more jobs than the retention cap through
// the HTTP surface: the table stops growing at the cap, the first id
// answers a typed 410 on GET and DELETE, the last 200, an unissued one
// 404.
func TestServerJobTableBounded(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	defer s.Drain()
	body := tinyJob(t)
	const extra = 5
	var last string
	for i := 0; i < JobRetention+extra; i++ {
		rec := do(t, s, "POST", "/v1/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d (body %s)", i, rec.Code, rec.Body)
		}
		var resp SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		j, err := s.pool.Job(resp.ID)
		if err != nil {
			t.Fatalf("job %s: %v", resp.ID, err)
		}
		<-j.Done()
		last = resp.ID
	}
	// The worker retires a job in the table before closing Done, so the
	// table reads settled; the drain stops the workers before it is read.
	s.Drain()
	s.pool.mu.Lock()
	held := s.pool.jobs.Len()
	s.pool.mu.Unlock()
	if held != JobRetention {
		t.Errorf("table holds %d jobs after %d, want the cap %d", held, JobRetention+extra, JobRetention)
	}
	for _, method := range []string{"GET", "DELETE"} {
		rec := do(t, s, method, "/v1/jobs/j000001", "")
		if rec.Code != http.StatusGone || errorOf(t, rec) != "job expired" {
			t.Errorf("%s first job: got %d %s, want 410 job expired", method, rec.Code, rec.Body)
		}
		if rec := do(t, s, method, "/v1/jobs/"+last, ""); rec.Code != http.StatusOK {
			t.Errorf("%s last job %s: got %d, want 200", method, last, rec.Code)
		}
		if rec := do(t, s, method, "/v1/jobs/j999999", ""); rec.Code != http.StatusNotFound {
			t.Errorf("%s unissued job: got %d, want 404", method, rec.Code)
		}
	}
}
