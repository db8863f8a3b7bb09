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
	"fmt"

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

// Set is a complete workload: the tasks and the circuits they use.
type Set struct {
	Tasks    []TaskSpec
	Circuits []*netlist.Netlist
}

// Spawn registers the set's tasks into the OS at their arrival times.
func (s *Set) Spawn(os *hostos.OS) {
	for _, ts := range s.Tasks {
		os.SpawnAt(ts.Arrival, ts.Name, ts.Priority, ts.Program)
	}
}

// CircuitNames returns the names of all referenced circuits, in order.
func (s *Set) CircuitNames() []string {
	names := make([]string, 0, len(s.Circuits))
	for _, c := range s.Circuits {
		names = append(names, c.Name)
	}
	return names
}

func fpga(circuit string, evals int64) hostos.Op {
	return hostos.UseFPGA(hostos.FPGARequest{Circuit: circuit, Evaluations: evals})
}

func seq(circuit string, cycles int64) hostos.Op {
	return hostos.UseFPGA(hostos.FPGARequest{Circuit: circuit, Cycles: cycles})
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

// Multimedia generates the codec scenario. The "codecs" are distinct
// datapath circuits of comparable size (transform, entropy-code, filter).
func Multimedia(cfg MultimediaConfig) *Set {
	codecs := []*netlist.Netlist{
		netlist.MustLookup("mul4"),   // transform-like datapath
		netlist.MustLookup("alu8"),   // predictive filter
		netlist.MustLookup("rotl16"), // bit-plane packing
	}
	src := rng.New(cfg.Seed)
	set := &Set{Circuits: codecs}
	for s := 0; s < cfg.Streams; s++ {
		taskSrc := src.Split()
		codec := taskSrc.Intn(len(codecs))
		var prog []hostos.Op
		for f := 0; f < cfg.Frames; f++ {
			if cfg.SwitchEvery > 0 && f > 0 && f%cfg.SwitchEvery == 0 {
				codec = (codec + 1 + taskSrc.Intn(len(codecs)-1)) % len(codecs)
			}
			prog = append(prog,
				hostos.Compute(cfg.ComputeTime),
				fpga(codecs[codec].Name, cfg.EvalsPerOp),
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

// Telecom generates the protocol scenario: each arriving session speaks
// one protocol (Zipf-popular), implemented as coding/CRC engines.
func Telecom(cfg TelecomConfig) *Set {
	protocols := []*netlist.Netlist{
		netlist.MustLookup("crc16"),  // framing check
		netlist.MustLookup("crc8"),   // legacy framing
		netlist.MustLookup("lfsr16"), // scrambler
		netlist.MustLookup("gray8"),  // modulation mapping
	}
	src := rng.New(cfg.Seed)
	zipf := rng.NewZipf(src.Split(), len(protocols), cfg.ProtocolSkew)
	set := &Set{Circuits: protocols}
	arrival := sim.Time(0)
	for s := 0; s < cfg.Sessions; s++ {
		arrival += sim.Time(float64(cfg.MeanInterval) * src.ExpFloat64())
		proto := protocols[zipf.Draw()]
		var prog []hostos.Op
		for p := 0; p < cfg.PacketsPer; p++ {
			prog = append(prog,
				hostos.Compute(200*sim.Microsecond),
				seq(proto.Name, cfg.CyclesPerPkt),
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

// Diagnosis generates the embedded scenario: a high-priority control task
// using a small resident-worthy circuit, plus low-priority diagnostic
// tasks arriving periodically with a rarely-used test circuit.
func Diagnosis(cfg DiagnosisConfig) *Set {
	control := netlist.MustLookup("alu8")    // control-law datapath
	diag := netlist.MustLookup("popcount32") // signature analysis
	tuning := netlist.MustLookup("cmp16")    // threshold tuning
	set := &Set{Circuits: []*netlist.Netlist{control, diag, tuning}}

	var ctrl []hostos.Op
	for i := 0; i < cfg.ControlOps; i++ {
		ctrl = append(ctrl, hostos.Compute(cfg.ComputeTime), fpga(control.Name, cfg.ControlEvals))
	}
	set.Tasks = append(set.Tasks, TaskSpec{Name: "control", Priority: 0, Program: ctrl})

	period := sim.Time(cfg.DiagEvery) * (cfg.ComputeTime + 2*sim.Millisecond)
	n := cfg.ControlOps / cfg.DiagEvery
	for i := 0; i < n; i++ {
		circuit := diag.Name
		if i%2 == 1 {
			circuit = tuning.Name
		}
		set.Tasks = append(set.Tasks, TaskSpec{
			Name:     fmt.Sprintf("diag%d", i),
			Priority: 5,
			Arrival:  sim.Time(i+1) * period,
			Program: []hostos.Op{
				hostos.Compute(100 * sim.Microsecond),
				fpga(circuit, cfg.DiagEvals),
			},
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

// Storage generates the disk-array scenario: request tasks arrive over
// time; writes run parity generation (RAID-style XOR) then integrity
// coding, reads run integrity checking only. The two hardware functions
// are natural residents for overlaying.
func Storage(cfg StorageConfig) *Set {
	parity := netlist.MustLookup("parity32")      // stripe parity (XOR across units)
	integrity := netlist.MustLookup("crc16")      // block integrity code
	correct := netlist.MustLookup("hamming74dec") // degraded-mode reconstruction
	set := &Set{Circuits: []*netlist.Netlist{parity, integrity, correct}}
	src := rng.New(cfg.Seed)
	arrival := sim.Time(0)
	for r := 0; r < cfg.Requests; r++ {
		taskSrc := src.Split()
		arrival += sim.Time(float64(cfg.MeanInterval) * taskSrc.ExpFloat64())
		var prog []hostos.Op
		prog = append(prog, hostos.Compute(150*sim.Microsecond)) // request parsing
		if taskSrc.Float64() < cfg.WriteRatio {
			// Write: parity across the stripe, then integrity code.
			prog = append(prog,
				fpga(parity.Name, cfg.BlockCycles),
				seq(integrity.Name, cfg.BlockCycles),
			)
		} else {
			// Read: integrity check; occasionally degraded-mode repair.
			prog = append(prog, seq(integrity.Name, cfg.BlockCycles))
			if taskSrc.Float64() < 0.2 {
				prog = append(prog, fpga(correct.Name, cfg.BlockCycles/4))
			}
		}
		prog = append(prog, hostos.Compute(100*sim.Microsecond)) // completion
		set.Tasks = append(set.Tasks, TaskSpec{
			Name:    fmt.Sprintf("req%d", r),
			Arrival: arrival,
			Program: prog,
		})
	}
	return set
}

// SyntheticConfig parameterizes the generic mix used by the partitioning
// and scheduling sweeps.
type SyntheticConfig struct {
	Tasks        int
	OpsPerTask   int
	EvalsPerOp   int64
	ComputeTime  sim.Time
	MeanInterval sim.Time // Poisson arrivals; 0 = all at time zero
	// CircuitPool limits the distinct circuits; tasks draw uniformly.
	CircuitPool []*netlist.Netlist
	// SwitchProb is the chance an op uses a different circuit than the
	// task's previous op.
	SwitchProb float64
	Seed       uint64
}

// DefaultPool returns a mixed-size circuit pool: small parity through a
// wide multiplier, matching the paper's "heterogeneous circuit sizes".
func DefaultPool() []*netlist.Netlist {
	return []*netlist.Netlist{
		netlist.MustLookup("parity16"),
		netlist.MustLookup("adder8"),
		netlist.MustLookup("cmp16"),
		netlist.MustLookup("counter8"),
		netlist.MustLookup("alu8"),
		netlist.MustLookup("mul4"),
	}
}

// Synthetic generates the generic mix.
func Synthetic(cfg SyntheticConfig) *Set {
	if len(cfg.CircuitPool) == 0 {
		cfg.CircuitPool = DefaultPool()
	}
	src := rng.New(cfg.Seed)
	set := &Set{Circuits: cfg.CircuitPool}
	arrival := sim.Time(0)
	for ti := 0; ti < cfg.Tasks; ti++ {
		taskSrc := src.Split()
		if cfg.MeanInterval > 0 {
			arrival += sim.Time(float64(cfg.MeanInterval) * taskSrc.ExpFloat64())
		}
		cur := taskSrc.Intn(len(cfg.CircuitPool))
		var prog []hostos.Op
		for op := 0; op < cfg.OpsPerTask; op++ {
			if op > 0 && taskSrc.Float64() < cfg.SwitchProb && len(cfg.CircuitPool) > 1 {
				cur = (cur + 1 + taskSrc.Intn(len(cfg.CircuitPool)-1)) % len(cfg.CircuitPool)
			}
			c := cfg.CircuitPool[cur]
			var hwOp hostos.Op
			if c.IsSequential() {
				hwOp = seq(c.Name, cfg.EvalsPerOp)
			} else {
				hwOp = fpga(c.Name, cfg.EvalsPerOp)
			}
			prog = append(prog, hostos.Compute(cfg.ComputeTime), hwOp)
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
	// The working sets are cut from one backing array, and seenAt[p] ==
	// r+1 marks page p already drawn for reference r: one stamp array for
	// the whole string instead of a set per reference.
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
		prog = append(prog, hostos.UseFPGA(hostos.FPGARequest{
			Circuit:     cfg.Circuit.Name,
			Evaluations: cfg.Evals,
			Pages:       pages,
		}))
	}
	return &Set{
		Tasks:    []TaskSpec{{Name: "paged", Program: prog}},
		Circuits: []*netlist.Netlist{cfg.Circuit},
	}
}
