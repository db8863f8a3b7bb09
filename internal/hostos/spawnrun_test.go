// workload imports hostos, so this benchmark cannot live in package
// hostos.
package hostos_test

import (
	"testing"

	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// instantFPGA accepts every circuit and runs every hardware op in a
// microsecond, so what is measured is the OS alone.
type instantFPGA struct{}

func (instantFPGA) Register(*hostos.Task, string) error   { return nil }
func (instantFPGA) Acquire(*hostos.Task) (sim.Time, bool) { return 0, true }
func (instantFPGA) ExecTime(*hostos.Task) sim.Time        { return sim.Microsecond }
func (instantFPGA) Preemptable(*hostos.Task) bool         { return true }
func (instantFPGA) Preempt(_ *hostos.Task, done, _ sim.Time) (sim.Time, sim.Time) {
	return 0, done
}
func (instantFPGA) Resume(*hostos.Task) sim.Time { return 0 }
func (instantFPGA) Complete(*hostos.Task)        {}
func (instantFPGA) Remove(*hostos.Task)          {}

// BenchmarkSpawnRun is the OS's share of a warm job: a new OS over the
// reset kernel of the last, the built multimedia set spawned into it
// and run dry. Bytes and allocations beside the time are the OS's own
// cost per job: its Task records, tables and arrival events.
func BenchmarkSpawnRun(b *testing.B) {
	set := workload.Multimedia(workload.DefaultMultimedia())
	k := sim.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Reset()
		o := hostos.New(k, hostos.DefaultConfig(), instantFPGA{}, nil)
		set.Spawn(o)
		k.Run()
		if !o.AllDone() {
			b.Fatal("the set did not finish")
		}
	}
}
