// Package workload generates the task mixes of the paper's application
// scenarios (§5): multimedia codec switching, telecom protocol adaptation,
// and embedded periodic diagnosis — plus parameterized synthetic mixes for
// the partitioning and pagination sweeps.
//
// A generator returns TaskSpecs (name, priority, arrival, program) and the
// set of netlists those programs reference; the caller registers the
// netlists with the engine and spawns the specs into the OS. Everything
// is deterministic for a given seed.
package workload

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TaskSpec describes one task to spawn.
type TaskSpec struct {
	Name     string
	Priority int
	Arrival  sim.Time
	Program  []hostos.Op
}

// Set is a complete workload: the tasks and the circuits they use. The
// generators cut every task's Program from one array sized for the whole
// set, each at exactly its length (cap == len), and point its hardware
// ops into one table of the set's distinct requests: many ops, and many
// tasks, share one request.
//
// A built Set is read-only, and that contract is load-bearing: a
// SetCache hands one *Set to every job of an equal spec, on boards
// running at once. The OS only ever indexes program[pc]; nothing that
// takes a Set may write to it, its tasks, their programs, the requests
// their ops point at or those requests' Pages, or its circuit list.
type Set struct {
	Tasks    []TaskSpec
	Circuits []*netlist.Netlist
}

// Ops returns the number of ops across all the set's task programs.
func (s *Set) Ops() int {
	n := 0
	for _, t := range s.Tasks {
		n += len(t.Program)
	}
	return n
}

// Spawn registers the set's tasks into the OS at their arrival times.
func (s *Set) Spawn(os *hostos.OS) {
	os.Reserve(len(s.Tasks))
	for _, ts := range s.Tasks {
		os.SpawnAt(ts.Arrival, ts.Name, ts.Priority, ts.Program)
	}
}

// MaxSpecOps bounds the ops one workload may hold across all its tasks.
// Every configuration in the repo builds a few hundred; the bound is what
// keeps a submitted spec from sizing the daemon's memory.
const MaxSpecOps = 1 << 16

// Bounds on one op's duration and hardware work. With MaxSpecOps they
// keep a run's virtual time far inside int64: a parameter is range
// checked, never left to wrap.
const (
	maxSpecTime = sim.Time(1) << 40 // about 18 virtual minutes
	maxSpecWork = int64(1) << 32    // evaluations or cycles
)

// ErrSpecParam is wrapped by every Validate error below: a workload
// parameter outside its legal range.
var ErrSpecParam = errors.New("workload: parameter out of range")

// ranges checks one config's parameters and keeps the first violation.
type ranges struct {
	scenario string
	err      error
}

func (r *ranges) fail(name string, v any, want string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s %s %v, want %s", ErrSpecParam, r.scenario, name, v, want)
	}
}

// count is a number of tasks or of ops per task.
func (r *ranges) count(name string, v int) {
	if v < 1 || v > MaxSpecOps {
		r.fail(name, v, fmt.Sprintf("1..%d", MaxSpecOps))
	}
}

func (r *ranges) atLeast(name string, v, lo int) {
	if v < lo {
		r.fail(name, v, fmt.Sprintf("at least %d", lo))
	}
}

func (r *ranges) time(name string, v sim.Time) {
	if v < 0 || v > maxSpecTime {
		r.fail(name, int64(v), fmt.Sprintf("0..%d", int64(maxSpecTime)))
	}
}

func (r *ranges) work(name string, v int64) {
	if v < 0 || v > maxSpecWork {
		r.fail(name, v, fmt.Sprintf("0..%d", maxSpecWork))
	}
}

// unit is a probability; the comparison's form rejects NaN.
func (r *ranges) unit(name string, v float64) {
	if !(v >= 0 && v <= 1) {
		r.fail(name, v, "0..1")
	}
}

// ops returns the first violation, or the op count n of a config whose
// counts passed count — so n, a product of a few of them, cannot have
// overflowed — checked against MaxSpecOps.
func (r *ranges) ops(n int64) (int, error) {
	if n > MaxSpecOps {
		r.fail("ops", n, fmt.Sprintf("at most %d (MaxSpecOps)", MaxSpecOps))
	}
	return int(n), r.err
}

// mustSize is how a generator takes its config's op count: a config its
// Validate rejects is a programmer error here, as an unknown name is to
// netlist.MustLookup. Specs off the wire are refused by Spec.Validate
// long before.
func mustSize(n int, err error) int {
	if err != nil {
		panic(err)
	}
	return n
}

// programs is the unused rest of the one array a Set's task programs are
// cut from.
type programs []hostos.Op

// next cuts the next program, empty with room for exactly n ops:
// appending past n reallocates instead of writing into the next task's.
func (p *programs) next(n int) []hostos.Op {
	prog := (*p)[:0:n]
	*p = (*p)[n:]
	return prog
}

// fpga is the request of evals input vectors through a combinational
// circuit, seq of cycles clock cycles of a sequential one. A generator
// puts each distinct request in its set's table once.
func fpga(circuit string, evals int64) hostos.FPGARequest {
	return hostos.FPGARequest{Circuit: circuit, Evaluations: evals}
}

func seq(circuit string, cycles int64) hostos.FPGARequest {
	return hostos.FPGARequest{Circuit: circuit, Cycles: cycles}
}

// MultimediaConfig parameterizes the codec-switching scenario: "multimedia
// systems can benefit from the use of VFPGA implementing different voice
// and image compression/decompression algorithms in order to accommodate
// different standards efficiently on a limited-size FPGA".
type MultimediaConfig struct {
	Streams     int      `json:"streams"`      // concurrent media streams (tasks)
	Frames      int      `json:"frames"`       // frames per stream
	EvalsPerOp  int64    `json:"evals_per_op"` // hardware work per frame
	SwitchEvery int      `json:"switch_every"` // frames between codec standard switches
	ComputeTime sim.Time `json:"compute_time_ns"`
	Seed        uint64   `json:"seed"`
}

// DefaultMultimedia returns a moderate codec workload.
func DefaultMultimedia() MultimediaConfig {
	return MultimediaConfig{
		Streams:     4,
		Frames:      24,
		EvalsPerOp:  20_000,
		SwitchEvery: 8,
		ComputeTime: 500 * sim.Microsecond,
		Seed:        1,
	}
}

// size checks the parameters' ranges and returns the set's op count.
func (c MultimediaConfig) size() (int, error) {
	r := ranges{scenario: "multimedia"}
	r.count("streams", c.Streams)
	r.count("frames", c.Frames)
	r.work("evals_per_op", c.EvalsPerOp)
	r.atLeast("switch_every", c.SwitchEvery, 0)
	r.time("compute_time_ns", c.ComputeTime)
	return r.ops(int64(c.Streams) * 2 * int64(c.Frames))
}

func (c *MultimediaConfig) reseed(seed uint64) { c.Seed = seed }

// Multimedia generates the codec scenario. The "codecs" are distinct
// datapath circuits of comparable size (transform, entropy-code, filter).
func Multimedia(cfg MultimediaConfig) *Set {
	ops := make(programs, mustSize(cfg.size()))
	codecs := []*netlist.Netlist{
		netlist.MustLookup("mul4"),   // transform-like datapath
		netlist.MustLookup("alu8"),   // predictive filter
		netlist.MustLookup("rotl16"), // bit-plane packing
	}
	reqs := make([]hostos.FPGARequest, len(codecs)) // one per codec
	for i, c := range codecs {
		reqs[i] = fpga(c.Name, cfg.EvalsPerOp)
	}
	src := rng.New(cfg.Seed)
	set := &Set{Tasks: make([]TaskSpec, 0, cfg.Streams), Circuits: codecs}
	for s := 0; s < cfg.Streams; s++ {
		taskSrc := src.Split()
		codec := taskSrc.Intn(len(codecs))
		prog := ops.next(2 * cfg.Frames)
		for f := 0; f < cfg.Frames; f++ {
			if cfg.SwitchEvery > 0 && f > 0 && f%cfg.SwitchEvery == 0 {
				codec = (codec + 1 + taskSrc.Intn(len(codecs)-1)) % len(codecs)
			}
			prog = append(prog,
				hostos.Compute(cfg.ComputeTime),
				hostos.UseFPGA(&reqs[codec]),
			)
		}
		set.Tasks = append(set.Tasks, TaskSpec{
			Name:    fmt.Sprintf("stream%d", s),
			Arrival: sim.Time(s) * sim.Millisecond,
			Program: prog,
		})
	}
	return set
}

// TelecomConfig parameterizes protocol adaptation: "modems, faxes,
// switching systems ... can adapt their operating mode changing the
// compression and encoding algorithms according to the partners involved".
type TelecomConfig struct {
	Sessions     int      `json:"sessions"`
	MeanInterval sim.Time `json:"mean_interval_ns"` // Poisson session inter-arrival
	PacketsPer   int      `json:"packets_per"`      // hardware bursts per session
	CyclesPerPkt int64    `json:"cycles_per_pkt"`
	ProtocolSkew float64  `json:"protocol_skew"` // Zipf exponent over protocols
	Seed         uint64   `json:"seed"`
}

// DefaultTelecom returns a moderate protocol-mix workload.
func DefaultTelecom() TelecomConfig {
	return TelecomConfig{
		Sessions:     12,
		MeanInterval: 2 * sim.Millisecond,
		PacketsPer:   6,
		CyclesPerPkt: 15_000,
		ProtocolSkew: 1.1,
		Seed:         2,
	}
}

// size checks the parameters' ranges and returns the set's op count.
func (c TelecomConfig) size() (int, error) {
	r := ranges{scenario: "telecom"}
	r.count("sessions", c.Sessions)
	r.time("mean_interval_ns", c.MeanInterval)
	r.count("packets_per", c.PacketsPer)
	r.work("cycles_per_pkt", c.CyclesPerPkt)
	if !(c.ProtocolSkew >= 0) {
		r.fail("protocol_skew", c.ProtocolSkew, "at least 0")
	}
	return r.ops(int64(c.Sessions) * 2 * int64(c.PacketsPer))
}

func (c *TelecomConfig) reseed(seed uint64) { c.Seed = seed }

// Telecom generates the protocol scenario: each arriving session speaks
// one protocol (Zipf-popular), implemented as coding/CRC engines.
func Telecom(cfg TelecomConfig) *Set {
	ops := make(programs, mustSize(cfg.size()))
	protocols := []*netlist.Netlist{
		netlist.MustLookup("crc16"),  // framing check
		netlist.MustLookup("crc8"),   // legacy framing
		netlist.MustLookup("lfsr16"), // scrambler
		netlist.MustLookup("gray8"),  // modulation mapping
	}
	reqs := make([]hostos.FPGARequest, len(protocols)) // one per protocol
	for i, p := range protocols {
		reqs[i] = seq(p.Name, cfg.CyclesPerPkt)
	}
	src := rng.New(cfg.Seed)
	zipf := rng.NewZipf(src.Split(), len(protocols), cfg.ProtocolSkew)
	set := &Set{Tasks: make([]TaskSpec, 0, cfg.Sessions), Circuits: protocols}
	arrival := sim.Time(0)
	for s := 0; s < cfg.Sessions; s++ {
		arrival += sim.Time(float64(cfg.MeanInterval) * src.ExpFloat64())
		proto := &reqs[zipf.Draw()]
		prog := ops.next(2 * cfg.PacketsPer)
		for p := 0; p < cfg.PacketsPer; p++ {
			prog = append(prog,
				hostos.Compute(200*sim.Microsecond),
				hostos.UseFPGA(proto),
			)
		}
		set.Tasks = append(set.Tasks, TaskSpec{
			Name:    fmt.Sprintf("session%d", s),
			Arrival: arrival,
			Program: prog,
		})
	}
	return set
}

// DiagnosisConfig parameterizes the embedded-control scenario: "execution
// of different non-frequent functions (e.g., periodic system testing and
// diagnosis as well as tuning of the operating parameters)".
type DiagnosisConfig struct {
	ControlOps   int      `json:"control_ops"`   // main-loop iterations
	ControlEvals int64    `json:"control_evals"` // hardware work per control iteration
	DiagEvery    int      `json:"diag_every"`    // control iterations between diagnostic runs
	DiagEvals    int64    `json:"diag_evals"`
	ComputeTime  sim.Time `json:"compute_time_ns"`
	Seed         uint64   `json:"seed"`
}

// DefaultDiagnosis returns a control loop with periodic diagnosis.
func DefaultDiagnosis() DiagnosisConfig {
	return DiagnosisConfig{
		ControlOps:   40,
		ControlEvals: 5_000,
		DiagEvery:    10,
		DiagEvals:    50_000,
		ComputeTime:  300 * sim.Microsecond,
		Seed:         3,
	}
}

// size checks the parameters' ranges and returns the set's op count:
// the control loop's, and two per diagnostic run.
func (c DiagnosisConfig) size() (int, error) {
	r := ranges{scenario: "diagnosis"}
	r.count("control_ops", c.ControlOps)
	r.work("control_evals", c.ControlEvals)
	r.atLeast("diag_every", c.DiagEvery, 1)
	r.work("diag_evals", c.DiagEvals)
	r.time("compute_time_ns", c.ComputeTime)
	if r.err != nil {
		return 0, r.err // diag_every may be 0
	}
	return r.ops(2 * int64(c.ControlOps+c.ControlOps/c.DiagEvery))
}

func (c *DiagnosisConfig) reseed(seed uint64) { c.Seed = seed }

// Diagnosis generates the embedded scenario: a high-priority control task
// using a small resident-worthy circuit, plus low-priority diagnostic
// tasks arriving periodically with a rarely-used test circuit.
func Diagnosis(cfg DiagnosisConfig) *Set {
	ops := make(programs, mustSize(cfg.size()))
	control := netlist.MustLookup("alu8")    // control-law datapath
	diag := netlist.MustLookup("popcount32") // signature analysis
	tuning := netlist.MustLookup("cmp16")    // threshold tuning
	n := cfg.ControlOps / cfg.DiagEvery
	set := &Set{Tasks: make([]TaskSpec, 0, 1+n), Circuits: []*netlist.Netlist{control, diag, tuning}}
	reqs := []hostos.FPGARequest{
		fpga(control.Name, cfg.ControlEvals),
		fpga(diag.Name, cfg.DiagEvals),
		fpga(tuning.Name, cfg.DiagEvals),
	}

	ctrl := ops.next(2 * cfg.ControlOps)
	for i := 0; i < cfg.ControlOps; i++ {
		ctrl = append(ctrl, hostos.Compute(cfg.ComputeTime), hostos.UseFPGA(&reqs[0]))
	}
	set.Tasks = append(set.Tasks, TaskSpec{Name: "control", Priority: 0, Program: ctrl})

	period := sim.Time(cfg.DiagEvery) * (cfg.ComputeTime + 2*sim.Millisecond)
	for i := 0; i < n; i++ {
		req := &reqs[1+i%2] // diagnosis, then tuning, in turn
		set.Tasks = append(set.Tasks, TaskSpec{
			Name:     fmt.Sprintf("diag%d", i),
			Priority: 5,
			Arrival:  sim.Time(i+1) * period,
			Program: append(ops.next(2),
				hostos.Compute(100*sim.Microsecond),
				hostos.UseFPGA(req),
			),
		})
	}
	return set
}

// StorageConfig parameterizes the disk-array scenario: "high-performance
// programmable interfaces for networking and complex disk arrays for
// high-volume fault-tolerant memory storage can be realized with
// different protocols and standards activated according to the task
// running on the processor" (§5).
type StorageConfig struct {
	Requests     int      `json:"requests"`
	MeanInterval sim.Time `json:"mean_interval_ns"`
	// WriteRatio is the fraction of requests that are writes (parity
	// generation); reads only verify (CRC check).
	WriteRatio  float64 `json:"write_ratio"`
	BlockCycles int64   `json:"block_cycles"` // hardware cycles per block processed
	Seed        uint64  `json:"seed"`
}

// DefaultStorage returns a moderate fault-tolerant storage workload.
func DefaultStorage() StorageConfig {
	return StorageConfig{
		Requests:     16,
		MeanInterval: 1500 * sim.Microsecond,
		WriteRatio:   0.4,
		BlockCycles:  20_000,
		Seed:         4,
	}
}

// storageMaxOps is the longest request program: parse, two hardware
// ops, completion.
const storageMaxOps = 4

// size checks the parameters' ranges and returns the set's op count —
// its upper bound: how long a request's program is depends on the draws.
func (c StorageConfig) size() (int, error) {
	r := ranges{scenario: "storage"}
	r.count("requests", c.Requests)
	r.time("mean_interval_ns", c.MeanInterval)
	r.unit("write_ratio", c.WriteRatio)
	r.work("block_cycles", c.BlockCycles)
	return r.ops(int64(c.Requests) * storageMaxOps)
}

func (c *StorageConfig) reseed(seed uint64) { c.Seed = seed }

// Storage generates the disk-array scenario: request tasks arrive over
// time; writes run parity generation (RAID-style XOR) then integrity
// coding, reads run integrity checking only. The two hardware functions
// are natural residents for overlaying.
func Storage(cfg StorageConfig) *Set {
	ops := make(programs, mustSize(cfg.size()))
	parity := netlist.MustLookup("parity32")      // stripe parity (XOR across units)
	integrity := netlist.MustLookup("crc16")      // block integrity code
	correct := netlist.MustLookup("hamming74dec") // degraded-mode reconstruction
	set := &Set{Tasks: make([]TaskSpec, 0, cfg.Requests), Circuits: []*netlist.Netlist{parity, integrity, correct}}
	reqs := []hostos.FPGARequest{
		fpga(parity.Name, cfg.BlockCycles),
		seq(integrity.Name, cfg.BlockCycles),
		fpga(correct.Name, cfg.BlockCycles/4),
	}
	stripe, check, repair := &reqs[0], &reqs[1], &reqs[2]
	src := rng.New(cfg.Seed)
	arrival := sim.Time(0)
	for r := 0; r < cfg.Requests; r++ {
		taskSrc := src.Split()
		arrival += sim.Time(float64(cfg.MeanInterval) * taskSrc.ExpFloat64())
		prog := append(ops.next(storageMaxOps), hostos.Compute(150*sim.Microsecond)) // request parsing
		if taskSrc.Float64() < cfg.WriteRatio {
			// Write: parity across the stripe, then integrity code.
			prog = append(prog, hostos.UseFPGA(stripe), hostos.UseFPGA(check))
		} else {
			// Read: integrity check; occasionally degraded-mode repair.
			prog = append(prog, hostos.UseFPGA(check))
			if taskSrc.Float64() < 0.2 {
				prog = append(prog, hostos.UseFPGA(repair))
			}
		}
		prog = append(prog, hostos.Compute(100*sim.Microsecond)) // completion
		set.Tasks = append(set.Tasks, TaskSpec{
			Name:    fmt.Sprintf("req%d", r),
			Arrival: arrival,
			Program: slices.Clip(prog), // a three-op request leaves its fourth slot unused
		})
	}
	return set
}

// SyntheticConfig parameterizes the generic mix used by the partitioning
// and scheduling sweeps.
type SyntheticConfig struct {
	Tasks        int      `json:"tasks"`
	OpsPerTask   int      `json:"ops_per_task"`
	EvalsPerOp   int64    `json:"evals_per_op"`
	ComputeTime  sim.Time `json:"compute_time_ns"`
	MeanInterval sim.Time `json:"mean_interval_ns"` // Poisson arrivals; 0 = all at time zero
	// Pool names the distinct circuits (registry names); tasks draw
	// uniformly. Empty means six of mixed size, parity16 through mul4.
	Pool []string `json:"pool,omitempty"`
	// SwitchProb is the chance an op uses a different circuit than the
	// task's previous op.
	SwitchProb float64 `json:"switch_prob"`
	Seed       uint64  `json:"seed"`
}

// DefaultSynthetic returns the synthetic mix used by default specs:
// a moderate load over the default circuit pool.
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{
		Tasks: 6, OpsPerTask: 6, EvalsPerOp: 30_000,
		ComputeTime: 300 * sim.Microsecond, SwitchProb: 0.3, Seed: 1,
	}
}

// defaultPool is the pool of a config that names none: mixed sizes,
// small parity through a wide multiplier, matching the paper's
// "heterogeneous circuit sizes".
var defaultPool = []string{"parity16", "adder8", "cmp16", "counter8", "alu8", "mul4"}

// size checks that the pool's names are known and distinct, and the
// parameters' ranges, and returns the set's op count. Distinct known names
// bound the pool by the registry: a repeat is found within its first
// registry-size-plus-one names.
func (c SyntheticConfig) size() (int, error) {
	for i, name := range c.Pool {
		if !netlist.Known(name) {
			return 0, fmt.Errorf("workload: circuit %q not in registry", name)
		}
		if slices.Contains(c.Pool[:i], name) {
			return 0, fmt.Errorf("workload: circuit %q repeated in pool", name)
		}
	}
	r := ranges{scenario: "synthetic"}
	r.count("tasks", c.Tasks)
	r.count("ops_per_task", c.OpsPerTask)
	r.work("evals_per_op", c.EvalsPerOp)
	r.time("compute_time_ns", c.ComputeTime)
	r.time("mean_interval_ns", c.MeanInterval)
	r.unit("switch_prob", c.SwitchProb)
	return r.ops(int64(c.Tasks) * 2 * int64(c.OpsPerTask))
}

func (c *SyntheticConfig) reseed(seed uint64) { c.Seed = seed }

// Synthetic generates the generic mix. The pool's names resolve to the
// library's shared netlists: two sets of one config name the same
// circuits.
func Synthetic(cfg SyntheticConfig) *Set {
	ops := make(programs, mustSize(cfg.size()))
	names := cfg.Pool
	if len(names) == 0 {
		names = defaultPool
	}
	pool := make([]*netlist.Netlist, len(names))
	reqs := make([]hostos.FPGARequest, len(names)) // one per pool circuit
	for i, name := range names {
		c := netlist.MustLookup(name)
		pool[i] = c
		if c.IsSequential() {
			reqs[i] = seq(c.Name, cfg.EvalsPerOp)
		} else {
			reqs[i] = fpga(c.Name, cfg.EvalsPerOp)
		}
	}
	src := rng.New(cfg.Seed)
	set := &Set{Tasks: make([]TaskSpec, 0, cfg.Tasks), Circuits: pool}
	arrival := sim.Time(0)
	for ti := 0; ti < cfg.Tasks; ti++ {
		taskSrc := src.Split()
		if cfg.MeanInterval > 0 {
			arrival += sim.Time(float64(cfg.MeanInterval) * taskSrc.ExpFloat64())
		}
		cur := taskSrc.Intn(len(pool))
		prog := ops.next(2 * cfg.OpsPerTask)
		for op := 0; op < cfg.OpsPerTask; op++ {
			if op > 0 && taskSrc.Float64() < cfg.SwitchProb && len(pool) > 1 {
				cur = (cur + 1 + taskSrc.Intn(len(pool)-1)) % len(pool)
			}
			prog = append(prog, hostos.Compute(cfg.ComputeTime), hostos.UseFPGA(&reqs[cur]))
		}
		set.Tasks = append(set.Tasks, TaskSpec{
			Name:    fmt.Sprintf("task%d", ti),
			Arrival: arrival,
			Program: prog,
		})
	}
	return set
}

// PagedConfig parameterizes a paging reference workload over one circuit.
type PagedConfig struct {
	Circuit *netlist.Netlist
	Refs    int     // page references (ops)
	Pages   int     // total pages of the circuit (caller computed)
	WorkSet int     // pages per op
	Skew    float64 // Zipf exponent over pages
	Evals   int64
	Seed    uint64
}

// Paged generates a single task issuing page-scoped operations with a
// Zipf-skewed reference string — the classic VM-style locality model.
func Paged(cfg PagedConfig) *Set {
	src := rng.New(cfg.Seed)
	zipf := rng.NewZipf(src.Split(), cfg.Pages, cfg.Skew)
	perm := src.Split().Perm(cfg.Pages) // decouple popularity from page index
	prog := make([]hostos.Op, 0, cfg.Refs)
	size := max(0, min(cfg.WorkSet, cfg.Pages))
	// Every reference has a working set of its own, so a request of its
	// own, all in one array. The working sets are cut from one backing
	// array, and seenAt[p] == r+1 marks page p already drawn for
	// reference r: one stamp array for the whole string instead of a set
	// per reference.
	reqs := make([]hostos.FPGARequest, cfg.Refs)
	sets := make([]int, cfg.Refs*size)
	seenAt := make([]int, cfg.Pages)
	for r := 0; r < cfg.Refs; r++ {
		pages := sets[r*size : r*size : (r+1)*size]
		for len(pages) < size {
			p := perm[zipf.Draw()]
			if seenAt[p] != r+1 {
				seenAt[p] = r + 1
				pages = append(pages, p)
			}
		}
		reqs[r] = hostos.FPGARequest{Circuit: cfg.Circuit.Name, Evaluations: cfg.Evals, Pages: pages}
		prog = append(prog, hostos.UseFPGA(&reqs[r]))
	}
	return &Set{
		Tasks:    []TaskSpec{{Name: "paged", Program: prog}},
		Circuits: []*netlist.Netlist{cfg.Circuit},
	}
}
