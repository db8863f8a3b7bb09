package loadgen_test

// The byte-identical replay contract, pinned end to end: the committed
// golden trace, executed on the real serving stack (serve's direct
// runner) and replayed through the model, must reproduce the committed
// CSV and bench-summary JSON exactly — twice, from independent runners,
// and split across a simulated fleet. Run with -update to regenerate
// the golden files after an intentional change to the model, the
// generator, or the simulated hardware.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

const (
	goldenTracePath   = "testdata/golden_trace.json"
	goldenCSVPath     = "testdata/golden_results.csv"
	goldenSummaryPath = "testdata/golden_summary.json"
)

// goldenRun generates/loads the golden trace and produces the CSV and
// bench-record JSON from a fresh direct runner.
func goldenRun(t *testing.T) (trace, csv, summary []byte) {
	t.Helper()
	cfg := benchConfig()
	tr, err := loadgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, err = tr.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	run, err := serve.NewDirectRunner(serve.DefaultBoardConfig())
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := execute(tr, run)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: benchServers, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loadgen.WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	csv = buf.Bytes()

	rec, err := runBench(cfg, benchServers, benchSLO, run)
	if err != nil {
		t.Fatal(err)
	}
	summary, err = loadgen.EncodeSummary(rec)
	if err != nil {
		t.Fatal(err)
	}
	return trace, csv, summary
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden (run with -update if intended)\n--- got ---\n%s", path, got)
	}
}

// TestGoldenReplayByteIdentical runs the whole pipeline twice, from
// independent runners, and pins every artifact to the committed bytes.
func TestGoldenReplayByteIdentical(t *testing.T) {
	trace1, csv1, sum1 := goldenRun(t)
	checkGolden(t, goldenTracePath, trace1)
	checkGolden(t, goldenCSVPath, csv1)
	checkGolden(t, goldenSummaryPath, sum1)

	trace2, csv2, sum2 := goldenRun(t)
	if !bytes.Equal(trace1, trace2) || !bytes.Equal(csv1, csv2) || !bytes.Equal(sum1, sum2) {
		t.Fatal("second independent run diverged from the first")
	}
}

// TestGoldenSaturationMeaningful guards the committed operating point:
// the SLO holds at recorded speed and breaks inside the search range,
// so the saturation point is interior, not a degenerate endpoint.
func TestGoldenSaturationMeaningful(t *testing.T) {
	data, err := os.ReadFile(goldenSummaryPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rec benchRecord
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("committed summary does not decode strictly: %v", err)
	}
	slo, err := loadgen.ParseSLO(rec.SLO)
	if err != nil {
		t.Fatal(err)
	}
	if !slo.Met(&rec.Baseline) {
		t.Fatalf("SLO %s not met at recorded speed: p99=%dns", rec.SLO, rec.Baseline.P99Ns)
	}
	if !rec.Saturation.Met || !rec.Saturation.Saturated {
		t.Fatalf("saturation point is degenerate: %+v", rec.Saturation)
	}
	if rec.Saturation.Point.Speedup <= 1 {
		t.Fatalf("saturation below recorded speed: %+v", rec.Saturation.Point)
	}
	if rec.Baseline.Failed != 0 {
		t.Fatalf("golden run has failed jobs: %+v", rec.Baseline)
	}
}

const experimentsPath = "../../EXPERIMENTS.md"

// loadBlock matches EXPERIMENTS.md's generated Load table.
var loadBlock = regexp.MustCompile(`(?s)<!-- table:Load -->\n(.*?)<!-- /table -->`)

// TestLoadTable holds EXPERIMENTS.md's Load table to the committed load
// record: the throughput curve and the saturation point, rendered as
// Markdown. Regenerate it with -update after the record changes.
func TestLoadTable(t *testing.T) {
	data, err := os.ReadFile(goldenSummaryPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| speedup | offered_jobs_s | achieved_jobs_s | p50_ms | p95_ms | p99_ms | slo_met |\n|---|---|---|---|---|---|---|\n")
	row := func(speedup string, p loadgen.CurvePoint) {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.1f | %.1f | %.1f | %t |\n", speedup,
			p.OfferedPerSec, p.AchievedPerSec, ms(p.P50Ns), ms(p.P95Ns), ms(p.P99Ns), p.SLOMet)
	}
	for _, p := range rec.Curve {
		row(fmt.Sprintf("%.2f", p.Speedup), p)
	}
	row(fmt.Sprintf("%.2f (saturation)", rec.Saturation.Point.Speedup), rec.Saturation.Point)

	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	m := loadBlock.FindSubmatchIndex(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md has no table:Load block")
	}
	if *update {
		out := append(append(append([]byte{}, doc[:m[2]]...), b.String()...), doc[m[3]:]...)
		if err := os.WriteFile(experimentsPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := string(doc[m[2]:m[3]]); got != b.String() {
		t.Errorf("EXPERIMENTS.md table:Load is stale (run with -update if the change is intended)\n--- in the file ---\n%s--- from %s ---\n%s", got, goldenSummaryPath, b.String())
	}
}

// TestGoldenFleetReplayDeterministic splits the golden trace round-robin
// across two simulated targets — what vfpgaload -targets does — replays
// each shard on its own model, and checks the merged artifacts are
// byte-identical across two independent runs.
func TestGoldenFleetReplayDeterministic(t *testing.T) {
	data, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	tr, err := workload.DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	runFleet := func() []byte {
		var merged bytes.Buffer
		for shard := 0; shard < 2; shard++ {
			sub := &workload.Trace{Version: tr.Version, Seed: tr.Seed, Tenants: tr.Tenants}
			for i := range tr.Entries {
				if i%2 == shard {
					sub.Entries = append(sub.Entries, tr.Entries[i])
				}
			}
			run, err := serve.NewDirectRunner(serve.DefaultBoardConfig())
			if err != nil {
				t.Fatal(err)
			}
			outcomes, err := execute(sub, run)
			if err != nil {
				t.Fatal(err)
			}
			res, err := loadgen.Replay(sub, outcomes, loadgen.ModelConfig{Servers: 2, Speedup: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := loadgen.WriteCSV(&merged, res); err != nil {
				t.Fatal(err)
			}
			sum, err := loadgen.EncodeSummary(res.Summary)
			if err != nil {
				t.Fatal(err)
			}
			merged.Write(sum)
		}
		return merged.Bytes()
	}
	first := runFleet()
	second := runFleet()
	if !bytes.Equal(first, second) {
		t.Fatal("fleet-split replay diverged across runs")
	}
}
