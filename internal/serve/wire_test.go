package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compile"
	"repro/internal/workload"
)

// TestJobResultWireGolden pins the wire bytes of one job's result: a
// traced telecom job on a multi board, marshaled as GET /v1/jobs/{id}
// ships it, against testdata/job_result.golden. Every task field, every
// engine's counters and the timeline are in it, by name and in order, so
// a field renamed, reordered, dropped or left unfilled shows here.
func TestJobResultWireGolden(t *testing.T) {
	bc := DefaultBoardConfig()
	bc.Manager = "multi"
	spec, err := workload.BuiltinSpec("telecom")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runJob(compile.NewStripCache(compile.DefaultCacheCapacity), bc, &spec, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "job_result.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		t.Errorf("job result wire bytes diverged from the golden file at byte %d:\n got …%s\nwant …%s",
			n, got[n:min(len(got), n+120)], want[n:min(len(want), n+120)])
	}
}
