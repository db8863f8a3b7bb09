package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &benchSpec{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// resultFile is what an orchestrated run writes: every workload's two
// passes side by side, and where they were measured.
type resultFile struct {
	Schema     string                     `json:"schema"`
	Seed       uint64                     `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NumCPU     int                        `json:"nproc"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Correct   bool              `json:"correct"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Readings  map[string]metric `json:"readings,omitempty"` // the untraced pass's speed readings: no bound
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Spans     []spanSummary     `json:"spans,omitempty"`
}

const resultSchema = "vfpga-benchmark/v1"

// envNoGolden tells a child process that the golden file is being
// regenerated and is not to be checked against.
const envNoGolden = "VFPGA_BENCHMARK_NO_GOLDEN"

// child measures o in a process of its own and returns its full result.
// quiet drops the child's metric listing.
func child(o runOpts, quiet bool, outDir string, env ...string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tflag := "0"
	if o.traced {
		tflag = "1"
	}
	detail := filepath.Join(outDir, fmt.Sprintf("run_%s_trace%s_seed%d.json", o.workload, tflag, o.seed))
	if err := os.Remove(detail); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", tflag,
		"-out", outDir, "-detail", detail}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	if !quiet {
		cmd.Stdout = os.Stdout
	}
	runErr := cmd.Run() // Run waits: no child outlives this call
	b, err := os.ReadFile(detail)
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): no result (exit: %v): %w", o.workload, tflag, runErr, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", o.workload, tflag, err)
	}
	return res, nil
}

func selected(workload string) ([]string, error) {
	if workload != "" {
		if _, ok := findWorkload(workload); !ok {
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
		return []string{workload}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names, nil
}

// runAll runs both passes of the selected workloads and writes
// result.json. It reports whether every output check passed.
func runAll(workload string, seed uint64, seconds float64, smoke bool, outDir string) (bool, error) {
	names, err := selected(workload)
	if err != nil {
		return false, err
	}
	file := &resultFile{Schema: resultSchema, Seed: seed, Seconds: seconds, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workloads: map[string]*workloadResult{}}
	ok := true
	for _, name := range names {
		o := runOpts{workload: name, seed: seed, seconds: seconds, smoke: smoke}
		un, err := child(o, false, outDir)
		if err != nil {
			return false, err
		}
		o.traced = true
		tr, err := child(o, false, outDir)
		if err != nil {
			return false, err
		}
		file.Workloads[name] = &workloadResult{
			Attempted: un.Attempted, Failed: un.Failed + tr.Failed, Correct: un.Correct && tr.Correct,
			EndToEnd: un.Metrics, Readings: un.Readings, PerLayer: tr.Metrics, Spans: tr.Spans,
		}
		ok = ok && un.Correct && tr.Correct
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, file); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s; traces are beside it\n", path)
	return ok, nil
}

// repeatRuns is the steadiness check: n untraced runs of each workload,
// each on another seed, then each end-to-end metric's min, median, max
// and quartile spread (as a share of the median) against its bound.
func repeatRuns(n int, workload string, seed uint64, seconds float64, specPath, outDir string) error {
	names, err := selected(workload)
	if err != nil {
		return err
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	for _, name := range names {
		values := map[string][]float64{}
		for r := 0; r < n; r++ {
			res, err := child(runOpts{workload: name, seed: seed + uint64(r), seconds: seconds}, true, outDir)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output checks failed: %v", name, seed+uint64(r), res.Problems)
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", name, seed+uint64(r))
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d, %gs each ==\n", name, n, seed, seed+uint64(n)-1, seconds)
		fmt.Printf("  %-20s %14s %14s %14s %9s %7s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, sm := range spec.EndToEnd {
			v := sortedCopy(values[sm.Name])
			if len(v) == 0 {
				continue
			}
			spread := quartileSpread(v)
			note := ""
			if sm.Name != "setup_s" && spread > sm.Bound/3 {
				note = "  spread over a third of the bound"
			}
			fmt.Printf("  %-20s %14.4f %14.4f %14.4f %8.2f%% %6.0f%%%s\n", sm.Name, v[0], quantile(v, 0.5), v[len(v)-1], spread*100, sm.Bound*100, note)
		}
	}
	return nil
}

// regenerateGolden runs seed 1 without the golden checks and rewrites the
// golden file from what the runs observed, listing what changed.
func regenerateGolden(seconds float64, outDir string) error {
	old, err := loadGolden()
	if err != nil {
		old = &golden{}
	}
	fresh := &golden{Jobs: map[string]int64{}, Harness: map[string]string{}}
	for _, w := range workloads {
		res, err := child(runOpts{workload: w.name, seed: 1, seconds: seconds}, true, outDir, envNoGolden+"=1")
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: output checks failed without the golden file: %v", w.name, res.Problems)
		}
		mergeGolden(fresh, res.Observed)
	}
	// How many harness seeds a run reaches depends on how fast the box
	// is; only the ones every run reaches are worth pinning.
	const harnessPinned = 8
	walk, pinned := &harness{start: harnessStart(1)}, map[string]bool{}
	for i := 0; i < setupMinReps; i++ {
		pinned[strconv.FormatUint(walk.nextSeed(true), 10)] = true
	}
	for i := 0; i < harnessPinned; i++ {
		pinned[strconv.FormatUint(walk.nextSeed(false), 10)] = true
	}
	for k := range fresh.Harness {
		if !pinned[k] {
			delete(fresh.Harness, k)
		}
	}
	changed := 0
	for k, v := range fresh.Jobs {
		if o, ok := old.Jobs[k]; ok && o != v {
			fmt.Printf("job %s: %d -> %d ns\n", k, o, v)
			changed++
		}
	}
	for k, v := range fresh.Harness {
		if o, ok := old.Harness[k]; ok && o != v {
			fmt.Printf("harness seed %s: %s -> %s\n", k, o, v)
			changed++
		}
	}
	if err := writeGolden(goldenPath, fresh); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d job entries, %d harness entries, %d changed\n", goldenPath, len(fresh.Jobs), len(fresh.Harness), changed)
	return nil
}

// nearZero is the floor below which a base value cannot carry a ratio;
// such a pair is compared by difference.
const nearZero = 1e-9

// verdict applies one bound. ratio is b over a, a being the base.
func verdict(a, b, bound float64, better string) (ratio float64, v string) {
	if math.Abs(a) < nearZero {
		switch {
		case math.Abs(b) < nearZero:
			return 1, "ok"
		case (b > 0) == (better == "lower"):
			return math.Inf(1), "worse"
		default:
			return math.Inf(1), "better"
		}
	}
	ratio = b / a
	up, down := ratio > 1+bound, ratio < 1-bound
	if better == "higher" {
		up, down = down, up
	}
	switch {
	case up:
		return ratio, "worse"
	case down:
		return ratio, "better"
	}
	return ratio, "ok"
}

// exactMetric reports whether a per-layer metric is the model's own
// per-job accounting, which a wall-clock-only change must leave
// identical.
func exactMetric(workload, name string) bool {
	def, ok := findWorkload(workload)
	return ok && def.exactVirtual && strings.HasSuffix(name, "_per_job") &&
		(strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "hostos."))
}

// compareFiles prints one row per (workload, metric) of two result files
// and reports whether any row is worse. Every ratio is b over a: a is the
// base.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	load := func(p string) (*resultFile, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		f := &resultFile{}
		if err := json.Unmarshal(b, f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return f, nil
	}
	fa, err := load(pathA)
	if err != nil {
		return false, err
	}
	fb, err := load(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, spec, fa, fb), nil
}

func compareResults(w io.Writer, spec *benchSpec, fa, fb *resultFile) (anyWorse bool) {
	fmt.Fprintf(w, "a (base): seed %d, %gs, %s, %d CPUs\nb:        seed %d, %gs, %s, %d CPUs\n",
		fa.Seed, fa.Seconds, fa.GoVersion, fa.NumCPU, fb.Seed, fb.Seconds, fb.GoVersion, fb.NumCPU)
	fmt.Fprintf(w, "%-11s %-42s %14s %14s %10s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := fa.Workloads[wl.Name], fb.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-11s missing from one side\n", wl.Name)
			anyWorse = true
			continue
		}
		if rb.Failed > ra.Failed || (!rb.Correct && ra.Correct) {
			fmt.Fprintf(w, "%-11s %-42s %14d %14d %10s %7s  worse\n", wl.Name, "failed ops", ra.Failed, rb.Failed, "", "any")
			anyWorse = true
		}
		for _, sm := range spec.EndToEnd {
			ma, oka := ra.EndToEnd[sm.Name]
			mb, okb := rb.EndToEnd[sm.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-11s %-42s missing from one side\n", wl.Name, sm.Name)
				anyWorse = true
				continue
			}
			ratio, v := verdict(ma.Value, mb.Value, sm.Bound, sm.Better)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-11s %-42s %14.4f %14.4f %10.4f %6.0f%%  %s\n", wl.Name, sm.Name, ma.Value, mb.Value, ratio, sm.Bound*100, v)
		}
		for _, n := range sortedKeys(ra.Readings) {
			ma := ra.Readings[n]
			if mb, ok := rb.Readings[n]; ok && math.Abs(ma.Value) >= nearZero {
				fmt.Fprintf(w, "%-11s %-42s %14.4f %14.4f %10.4f %7s  %s\n", wl.Name, n, ma.Value, mb.Value, mb.Value/ma.Value, "", "reading")
			}
		}
		for _, n := range sortedKeys(ra.PerLayer) {
			ma := ra.PerLayer[n]
			mb, ok := rb.PerLayer[n]
			if !ok {
				continue
			}
			if ma.Value == 0 && mb.Value == 0 {
				continue
			}
			ratio, v := math.NaN(), "layer"
			if math.Abs(ma.Value) >= nearZero {
				ratio = mb.Value / ma.Value
			}
			if exactMetric(wl.Name, n) {
				v = "same"
				if ma.Value != mb.Value {
					v = "model changed"
					anyWorse = true
				}
			}
			fmt.Fprintf(w, "%-11s %-42s %14.4f %14.4f %10.4f %7s  %s\n", wl.Name, n, ma.Value, mb.Value, ratio, "", v)
		}
	}
	return anyWorse
}
