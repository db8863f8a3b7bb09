package hostos

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// mockFPGA is a scriptable FPGA manager for scheduler tests.
type mockFPGA struct {
	os          *OS
	setup       sim.Time
	perEval     sim.Time
	preemptable bool
	saveCost    sim.Time
	resumeCost  sim.Time
	rollback    bool // preserve nothing on preempt

	busyWith  *Task // non-nil models an exclusive resource
	exclusive bool
	waiters   []*Task

	registered map[string]int
	completes  int
	preempts   int
	resumes    int
	removes    int
}

func newMock() *mockFPGA {
	return &mockFPGA{
		perEval:     sim.Microsecond,
		preemptable: true,
		registered:  map[string]int{},
	}
}

func (m *mockFPGA) Register(t *Task, circuit string) error {
	m.registered[circuit]++
	return nil
}

func (m *mockFPGA) Acquire(t *Task) (sim.Time, bool) {
	if m.exclusive {
		if m.busyWith != nil && m.busyWith != t {
			m.waiters = append(m.waiters, t)
			return 0, false
		}
		m.busyWith = t
	}
	return m.setup, true
}

func (m *mockFPGA) ExecTime(t *Task) sim.Time {
	req := t.CurrentRequest()
	n := req.Evaluations + req.Cycles
	return sim.Time(n) * m.perEval
}

func (m *mockFPGA) Preemptable(t *Task) bool { return m.preemptable }

func (m *mockFPGA) Preempt(t *Task, done, total sim.Time) (sim.Time, sim.Time) {
	m.preempts++
	if m.rollback {
		return 0, 0
	}
	return m.saveCost, done
}

func (m *mockFPGA) Resume(t *Task) sim.Time {
	m.resumes++
	return m.resumeCost
}

func (m *mockFPGA) Complete(t *Task) {
	m.completes++
}

// Remove releases the exclusive resource at task exit, matching the
// paper's non-preemptable FPGA: held "until the task holding it has not
// completed the algorithm".
func (m *mockFPGA) Remove(t *Task) {
	m.removes++
	if m.exclusive && m.busyWith == t {
		m.busyWith = nil
		if len(m.waiters) > 0 {
			next := m.waiters[0]
			m.waiters = m.waiters[1:]
			m.busyWith = next
			m.os.Unblock(next)
		}
	}
}

// AttachOS makes the mock an Attacher: New hands it the OS it unblocks
// waiters through, and TestFPGABlockingAndHandoff would nil-deref if it
// did not.
func (m *mockFPGA) AttachOS(o *OS) { m.os = o }

func newOS(cfg Config, m *mockFPGA) *OS {
	return New(sim.New(), cfg, m, nil)
}

func TestSingleComputeTask(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: FIFO, CtxSwitch: 50 * sim.Microsecond}, m)
	task, err := o.Spawn("a", 0, []Op{Compute(5 * sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	o.K.Run()
	if task.State() != TaskDone {
		t.Fatalf("task state %v", task.State())
	}
	if task.CPUTime != 5*sim.Millisecond {
		t.Fatalf("CPU time %v", task.CPUTime)
	}
	if task.Turnaround() != 5*sim.Millisecond+50*sim.Microsecond {
		t.Fatalf("turnaround %v should be burst + ctx switch", task.Turnaround())
	}
}

// A spawn into a reserved OS allocates nothing: its Task is carved from
// the array Reserve sized, the task and ready tables have room, and the
// events that start its segments and switch it out name it by ID
// through handlers the OS bound once, not through closures made per
// task. Each run spawns one array's worth of tasks (taskChunk), so an
// OS that was not reserved shows its array a run; 100 runs amortize the
// growth of the kernel's event arrays below one allocation a run.
func TestReservedSpawnAllocatesNothing(t *testing.T) {
	const runs = 100
	o := newOS(Config{Policy: RR}, newMock())
	o.Reserve((runs + 1) * taskChunk) // AllocsPerRun adds a warm-up run
	prog := []Op{Compute(sim.Millisecond)}
	if n := testing.AllocsPerRun(runs, func() {
		for range taskChunk {
			if _, err := o.Spawn("t", 0, prog); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("%d spawns into a reserved OS allocate %v times, want 0", taskChunk, n)
	}
}

// An op is a one-byte kind, a duration and a pointer to its request: 24
// bytes on a 64-bit build, where the 56-byte request it carried by value
// made it 72. On a 32-bit build the duration aligns to 4 and the pointer
// is 4 bytes.
func TestOpSize(t *testing.T) {
	want := uintptr(24)
	if bits.UintSize == 32 {
		want = 16
	}
	if got := unsafe.Sizeof(Op{}); got != want {
		t.Errorf("Op is %d bytes on a %d-bit build, want %d", got, bits.UintSize, want)
	}
}

func TestEmptyProgramRejected(t *testing.T) {
	o := newOS(Config{}, newMock())
	if _, err := o.Spawn("x", 0, nil); err == nil {
		t.Fatal("empty program accepted")
	}
}

func TestFIFORunsToCompletion(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: FIFO, CtxSwitch: 0}, m)
	a, _ := o.Spawn("a", 0, []Op{Compute(10 * sim.Millisecond)})
	b, _ := o.Spawn("b", 0, []Op{Compute(1 * sim.Millisecond)})
	o.K.Run()
	// FIFO: a finishes before b starts despite b being shorter.
	if !(a.Finished <= b.FirstRun) {
		t.Fatalf("FIFO violated: a done %v, b first run %v", a.Finished, b.FirstRun)
	}
}

func TestRRInterleaves(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	a, _ := o.Spawn("a", 0, []Op{Compute(5 * sim.Millisecond)})
	b, _ := o.Spawn("b", 0, []Op{Compute(5 * sim.Millisecond)})
	o.K.Run()
	// Round robin: both finish within one slice of each other.
	gap := a.Finished - b.Finished
	if gap < 0 {
		gap = -gap
	}
	if gap > sim.Millisecond+sim.Microsecond {
		t.Fatalf("RR tasks finished %v apart", gap)
	}
	if a.Preemptions == 0 && b.Preemptions == 0 {
		t.Fatal("no preemptions under RR with long bursts")
	}
}

func TestPriorityPreemption(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: Priority, TimeSlice: 100 * sim.Millisecond, CtxSwitch: 0}, m)
	low, _ := o.Spawn("low", 10, []Op{Compute(20 * sim.Millisecond)})
	o.K.Schedule(5*sim.Millisecond, 0, func(int) {
		if _, err := o.Spawn("high", 1, []Op{Compute(2 * sim.Millisecond)}); err != nil {
			t.Error(err)
		}
	}, 0)
	o.K.Run()
	var high *Task
	for _, task := range o.Tasks() {
		if task.Name == "high" {
			high = task
		}
	}
	if high.Finished >= low.Finished {
		t.Fatalf("high finished %v after low %v", high.Finished, low.Finished)
	}
	if high.Finished != 7*sim.Millisecond {
		t.Fatalf("high finished at %v, want 7ms (preempted low immediately)", high.Finished)
	}
}

func TestFPGAOpBasic(t *testing.T) {
	m := newMock()
	m.setup = 2 * sim.Millisecond
	o := newOS(Config{Policy: FIFO, Syscall: 10 * sim.Microsecond, CtxSwitch: 0}, m)
	task, _ := o.Spawn("hw", 0, []Op{UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 1000})})
	o.K.Run()
	if task.State() != TaskDone {
		t.Fatalf("state %v", task.State())
	}
	if m.completes != 1 {
		t.Fatalf("completes = %d", m.completes)
	}
	if task.HWTime != 1000*sim.Microsecond {
		t.Fatalf("HW time %v", task.HWTime)
	}
	if task.Overhead < 2*sim.Millisecond {
		t.Fatalf("overhead %v must include setup", task.Overhead)
	}
	if m.registered["c"] != 1 {
		t.Fatal("circuit not registered at spawn")
	}
}

func TestFPGABlockingAndHandoff(t *testing.T) {
	m := newMock()
	m.exclusive = true
	m.preemptable = false
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	// a grabs the FPGA and, per the paper's exclusive model, holds it
	// until task exit; b reaches its own FPGA op during a's CPU phase and
	// must wait.
	a, _ := o.Spawn("a", 0, []Op{
		UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 5000}),
		Compute(3 * sim.Millisecond),
	})
	b, _ := o.Spawn("b", 0, []Op{
		Compute(100 * sim.Microsecond),
		UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 100}),
	})
	o.K.Run()
	if a.State() != TaskDone || b.State() != TaskDone {
		t.Fatalf("states %v %v", a.State(), b.State())
	}
	if b.BlockWait == 0 {
		t.Fatal("b never waited for the exclusive FPGA")
	}
	if b.Finished <= a.Finished {
		t.Fatal("b finished before a released the FPGA")
	}
}

func TestPreemptionSaveRestore(t *testing.T) {
	m := newMock()
	m.saveCost = 100 * sim.Microsecond
	m.resumeCost = 150 * sim.Microsecond
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	hw, _ := o.Spawn("hw", 0, []Op{UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 3500})})
	cpu, _ := o.Spawn("cpu", 0, []Op{Compute(3 * sim.Millisecond)})
	o.K.Run()
	if hw.State() != TaskDone || cpu.State() != TaskDone {
		t.Fatal("not all done")
	}
	if m.preempts == 0 || m.resumes == 0 {
		t.Fatalf("expected save/restore cycles: %d preempts, %d resumes", m.preempts, m.resumes)
	}
	// With state preserved, total HW time equals the pure exec time.
	if hw.HWTime != 3500*sim.Microsecond {
		t.Fatalf("HW time %v, want 3.5ms exactly (no lost work)", hw.HWTime)
	}
	if hw.Overhead < m.saveCost+m.resumeCost {
		t.Fatalf("overhead %v missing save/restore costs", hw.Overhead)
	}
}

func TestRollbackRedoesWork(t *testing.T) {
	m := newMock()
	m.rollback = true
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	// 1.5ms op with 1ms slices and a competing task: first slice loses
	// 1ms of work, so total HW time exceeds the pure 1.5ms.
	hw, _ := o.Spawn("hw", 0, []Op{UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 1500})})
	o.Spawn("cpu", 0, []Op{Compute(3 * sim.Millisecond)})
	o.K.Run()
	if hw.State() != TaskDone {
		t.Fatal("hw not done")
	}
	if hw.HWTime <= 1500*sim.Microsecond {
		t.Fatalf("rollback should redo work: HW time %v", hw.HWTime)
	}
}

func TestNonPreemptableRunsThroughSlice(t *testing.T) {
	m := newMock()
	m.preemptable = false
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	hw, _ := o.Spawn("hw", 0, []Op{UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 5000})})
	o.Spawn("cpu", 0, []Op{Compute(1 * sim.Millisecond)})
	o.K.Run()
	if hw.Preemptions != 0 {
		t.Fatalf("non-preemptable op preempted %d times", hw.Preemptions)
	}
	if m.preempts != 0 {
		t.Fatal("manager.Preempt called for non-preemptable op")
	}
}

func TestMixedProgram(t *testing.T) {
	m := newMock()
	o := newOS(DefaultConfig(), m)
	task, _ := o.Spawn("mix", 0, []Op{
		Compute(2 * sim.Millisecond),
		UseFPGA(&FPGARequest{Circuit: "a", Evaluations: 500}),
		Compute(1 * sim.Millisecond),
		UseFPGA(&FPGARequest{Circuit: "b", Cycles: 200}),
	})
	o.K.Run()
	if task.State() != TaskDone {
		t.Fatalf("state %v", task.State())
	}
	if task.CPUTime != 3*sim.Millisecond {
		t.Fatalf("CPU %v", task.CPUTime)
	}
	if task.HWTime != 700*sim.Microsecond {
		t.Fatalf("HW %v", task.HWTime)
	}
	if m.completes != 2 || len(m.registered) != 2 {
		t.Fatalf("completes %d, registered %v", m.completes, m.registered)
	}
}

func TestSpawnAtDelaysArrival(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: FIFO, CtxSwitch: 0}, m)
	o.SpawnAt(10*sim.Millisecond, "late", 0, []Op{Compute(sim.Millisecond)})
	o.K.Run()
	task := o.Tasks()[0]
	if task.Created != 10*sim.Millisecond {
		t.Fatalf("created %v", task.Created)
	}
	if task.Finished != 11*sim.Millisecond {
		t.Fatalf("finished %v", task.Finished)
	}
}

func TestMakespanAndAllDone(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: FIFO, CtxSwitch: 0}, m)
	if o.AllDone() {
		t.Fatal("empty OS reports all done")
	}
	o.Spawn("a", 0, []Op{Compute(sim.Millisecond)})
	o.Spawn("b", 0, []Op{Compute(2 * sim.Millisecond)})
	o.K.Run()
	if !o.AllDone() {
		t.Fatal("not all done after run")
	}
	if o.Makespan() != 3*sim.Millisecond {
		t.Fatalf("makespan %v", o.Makespan())
	}
}

func TestCtxSwitchAccounting(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 10 * sim.Microsecond}, m)
	o.Spawn("a", 0, []Op{Compute(3 * sim.Millisecond)})
	o.Spawn("b", 0, []Op{Compute(3 * sim.Millisecond)})
	o.K.Run()
	if o.CtxSwitches < 4 {
		t.Fatalf("ctx switches = %d, want several", o.CtxSwitches)
	}
}

func TestReadyWaitAccumulates(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: FIFO, CtxSwitch: 0}, m)
	o.Spawn("a", 0, []Op{Compute(10 * sim.Millisecond)})
	b, _ := o.Spawn("b", 0, []Op{Compute(sim.Millisecond)})
	o.K.Run()
	if b.ReadyWait < 10*sim.Millisecond {
		t.Fatalf("b ready wait %v, want >= 10ms", b.ReadyWait)
	}
}

func TestPolicyStrings(t *testing.T) {
	if FIFO.String() != "fifo" || RR.String() != "rr" || Priority.String() != "priority" {
		t.Fatal("policy names wrong")
	}
	if TaskReady.String() != "ready" || TaskDone.String() != "done" {
		t.Fatal("state names wrong")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{FIFO, RR, Priority} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lottery"); err == nil {
		t.Error("ParsePolicy accepted an unknown discipline")
	}
}

func TestCurrentRequestPanicsOnCompute(t *testing.T) {
	m := newMock()
	o := newOS(Config{}, m)
	task := o.newTask(0, "a", 0, []Op{Compute(sim.Millisecond)})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	task.CurrentRequest()
}

// osView is an OS's state as a run observes it, its kernel (and the
// handle of its segment event there), manager and handlers left out and
// an emptied table read as none: a renewed OS and a new one must agree
// on it.
func osView(o *OS) OS {
	v := *o
	v.K, v.fpga, v.segEvt = nil, nil, sim.Event{}
	v.segEnd, v.dispatchFn, v.startFn, v.preemptFn, v.spawnFn = nil, nil, nil, nil, nil
	for _, s := range []*[]*Task{&v.tasks, &v.ready, &v.arrivals} {
		if len(*s) == 0 {
			*s = nil
		}
	}
	if len(v.taskBuf) == 0 {
		v.taskBuf = nil
	}
	return v
}

// An OS renewed after a dirty job — tasks spawned now and later, one
// blocked behind an exclusive FPGA, preemptions, context switches and a
// trace attached — is a new OS on every observable field, attaches to
// its new manager, and runs the next job exactly as a new one does.
func TestRenewedOSEqualsFresh(t *testing.T) {
	cfg := Config{Policy: RR, TimeSlice: 2 * sim.Millisecond, CtxSwitch: 50 * sim.Microsecond, Syscall: 10 * sim.Microsecond}
	req := &FPGARequest{Circuit: "c", Evaluations: 3000}
	spawn := func(o *OS, n int) {
		o.Reserve(n)
		for i := range n {
			o.SpawnAt(sim.Time(i)*sim.Millisecond, fmt.Sprint("t", i), i%2,
				[]Op{Compute(3 * sim.Millisecond), UseFPGA(req), Compute(sim.Millisecond)})
		}
	}
	dirty := newMock()
	dirty.exclusive = true
	o := newOS(cfg, dirty)
	o.AttachTrace(NewEventLog())
	spawn(o, 5)
	if _, err := o.Spawn("now", 0, []Op{Compute(sim.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	o.K.Run()
	if !o.AllDone() || o.CtxSwitches == 0 || dirty.preempts == 0 || dirty.removes != 6 {
		t.Fatalf("the dirty job ran %d tasks, %d switches, %d preemptions", len(o.Tasks()), o.CtxSwitches, dirty.preempts)
	}

	k := o.K
	k.Reset()
	m := newMock()
	renewed := New(k, cfg, m, o)
	if renewed != o {
		t.Fatal("New did not renew the used OS in place")
	}
	if m.os != renewed {
		t.Fatal("the renewed OS did not attach to its new manager")
	}
	fresh := newOS(cfg, newMock())
	if got, want := osView(renewed), osView(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("renewed OS differs from a new one:\nrenewed: %+v\nnew:     %+v", got, want)
	}
	for _, x := range []*OS{renewed, fresh} {
		spawn(x, 3)
		x.K.Run()
	}
	if !renewed.AllDone() || len(renewed.Tasks()) != 3 {
		t.Fatalf("the renewed OS ran %d tasks, want 3", len(renewed.Tasks()))
	}
	for i, tk := range renewed.Tasks() {
		if !reflect.DeepEqual(*tk, *fresh.Tasks()[i]) {
			t.Errorf("task %d on the renewed OS:\n%+v\non a new one:\n%+v", i, *tk, *fresh.Tasks()[i])
		}
	}
	if got, want := osView(renewed), osView(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("after the next job the renewed OS differs from a new one:\nrenewed: %+v\nnew:     %+v", got, want)
	}
}
