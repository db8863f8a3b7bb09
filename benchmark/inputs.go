package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Streams of the one seeded generator: every input the benchmark draws —
// synthetic spec seeds, circuit sampling, the arrival schedule — comes
// from rng.New(--seed) split per use, so the same seed gives the same
// inputs and a new draw in one place does not shift another.
const (
	streamMix = iota + 1
	streamCold
	streamArrivals
	streamSample
	streamHarness
)

// stream returns the n-th independent stream of the run's seed.
func stream(seed uint64, n int) *rng.Source {
	src := rng.New(seed)
	for ; n > 0; n-- {
		src = src.Split()
	}
	return src
}

// jobSpec is one distinct spec of a workload's mix, with what the
// clients and the output checks need precomputed in set-up.
type jobSpec struct {
	spec workload.Spec
	json []byte // canonical wire form
	key  string // short content hash; golden and recurrence checks key on it
}

func newJobSpec(s workload.Spec) (jobSpec, error) {
	b, err := s.EncodeJSON()
	if err != nil {
		return jobSpec{}, fmt.Errorf("encode spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return jobSpec{spec: s, json: b, key: hex.EncodeToString(sum[:8])}, nil
}

const (
	mixSynthSeeds = 8 // distinct synthetic specs in the warm mix
	mixTenants    = 4
	mixTraceEvery = 20  // 1 job in 20 asks for its timeline
	mixCycle      = 360 // lcm(boards 9, scenarios 5 x synthetic seeds 8, trace 20, tenants 4)
)

// warmMix is the spec mix the two warm workloads share: the five builtin
// scenarios in rotation, the synthetic one cycling through eight seeds
// drawn from --seed. Job i runs scenario i mod 5; the four fixed
// scenarios are seed-independent, which is what lets one golden file
// check their virtual times on every seed.
type warmMix struct {
	fixed []jobSpec // diagnosis, multimedia, storage, telecom
	synth []jobSpec
}

func newWarmMix(seed uint64) (*warmMix, error) {
	m := &warmMix{}
	for _, name := range workload.Scenarios() {
		if name == "synthetic" {
			continue
		}
		s, err := workload.BuiltinSpec(name)
		if err != nil {
			return nil, err
		}
		js, err := newJobSpec(s)
		if err != nil {
			return nil, err
		}
		m.fixed = append(m.fixed, js)
	}
	src := stream(seed, streamMix)
	for k := 0; k < mixSynthSeeds; k++ {
		sy := workload.DefaultSynthetic()
		sy.Seed = src.Uint64() >> 16
		js, err := newJobSpec(workload.Spec{Scenario: "synthetic", Synthetic: &sy})
		if err != nil {
			return nil, err
		}
		m.synth = append(m.synth, js)
	}
	return m, nil
}

// at returns job i's spec.
func (m *warmMix) at(i int) *jobSpec {
	sc := i % 5
	if sc == 4 {
		return &m.synth[(i/5)%mixSynthSeeds]
	}
	return &m.fixed[sc]
}

// distinct returns the mix's specs once each.
func (m *warmMix) distinct() []*jobSpec {
	var out []*jobSpec
	for i := range m.fixed {
		out = append(out, &m.fixed[i])
	}
	for i := range m.synth {
		out = append(out, &m.synth[i])
	}
	return out
}

func tenantName(i int) string { return fmt.Sprintf("tenant%d", i%mixTenants) }

// boardFor returns the default board running manager.
func boardFor(manager string, queueDepth int) serve.BoardConfig {
	bc := serve.DefaultBoardConfig()
	bc.Manager = manager
	bc.QueueDepth = queueDepth
	return bc
}

// circuitInfo is one registry circuit eligible for cold_node.
type circuitInfo struct {
	name  string
	gates int
}

const (
	coldPool   = 4  // circuits per cold job
	coldCycle  = 10 // ops per cycle: 40 circuits, each compiled once
	coldRounds = 16 // distinct shuffles before the cycle sequence repeats
	// coldVirtualWindow is how many ops virtual_ms_per_op averages over:
	// what every run reaches even when the box runs at half speed, and
	// enough that the seeds' different groupings agree to a few percent.
	coldVirtualWindow = 8 * coldCycle
)

// coldPlan is cold_node's op sequence. The eligible circuits are ranked
// by gate count and dealt into coldPool strata; every op takes one
// circuit from each stratum. A cycle of coldCycle ops therefore compiles
// the same 40 circuits whatever the seed — the seed only shuffles which
// circuits share a job — so op cost has the same distribution on every
// seed and each op mixes cheap and expensive strips. The synthetic spec's
// own seed (which task uses which circuit of the pool) is the op's
// position in the plan, not a draw: the grouping alone already spreads
// the mean virtual time of coldVirtualWindow ops by 2.5 % between seeds,
// and a second source of spread would buy nothing. After coldRounds
// cycles the shuffles repeat, so every (board, spec) pair recurs and the
// recurrence check has something to compare.
type coldPlan struct {
	ops []jobSpec // coldRounds x coldCycle
}

func newColdPlan(seed uint64, eligible []circuitInfo) (*coldPlan, error) {
	need := coldPool * coldCycle
	if len(eligible) < need {
		return nil, fmt.Errorf("cold_node needs %d circuits that fit the board, registry has %d", need, len(eligible))
	}
	ranked := append([]circuitInfo(nil), eligible...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].gates != ranked[j].gates {
			return ranked[i].gates < ranked[j].gates
		}
		return ranked[i].name < ranked[j].name
	})
	ranked = ranked[len(ranked)-need:] // drop the smallest extras: they cost ~nothing to compile
	src := stream(seed, streamCold)
	p := &coldPlan{}
	for r := 0; r < coldRounds; r++ {
		var perms [coldPool][]int
		for s := range perms {
			perms[s] = src.Perm(coldCycle)
		}
		for j := 0; j < coldCycle; j++ {
			sy := workload.DefaultSynthetic()
			sy.Seed = uint64(r*coldCycle+j) + 1
			for s := 0; s < coldPool; s++ {
				sy.Pool = append(sy.Pool, ranked[s*coldCycle+perms[s][j]].name)
			}
			js, err := newJobSpec(workload.Spec{Scenario: "synthetic", Synthetic: &sy})
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, js)
		}
	}
	return p, nil
}

// arrival is one open-loop request: when it is due, as an offset from
// the start of the schedule, and which job of the mix it is.
type arrival struct {
	due time.Duration
	job int
}

// openSchedule draws Poisson arrivals at rate per second over span and
// quantises each due time up to the next tick: a goroutine cannot sleep
// for a sub-millisecond gap, so the generator wakes once per tick and
// sends everything due, which is also what makes the load bursty.
func openSchedule(seed uint64, rate float64, span, tick time.Duration) []arrival {
	src := stream(seed, streamArrivals)
	var out []arrival
	t := 0.0 // seconds
	for i := 0; ; i++ {
		t += src.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		due := (at + tick - 1) / tick * tick
		out = append(out, arrival{due: due, job: i})
	}
}

// submitBody is the POST /v1/jobs body for job i pinned to board.
func submitBody(js *jobSpec, i, board int) ([]byte, error) {
	b := board
	return json.Marshal(serve.SubmitRequest{
		Tenant: tenantName(i), Workload: js.spec, Board: &b,
		Trace: i%mixTraceEvery == mixTraceEvery-1,
	})
}
