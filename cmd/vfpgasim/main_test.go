package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenRuns are the documented invocations (README, the usage block
// above main, the verify notes) plus one run per manager, the multi
// manager at three boards and every shape under a fault plan. Each
// golden holds the invocation's whole stdout.
var goldenRuns = []struct{ name, args string }{
	{"readme_gantt", "-scenario telecom -manager partition -gantt"},
	{"readme_trace", "-scenario multimedia -manager dynamic -trace"},
	{"readme_faults_trace", "-scenario multimedia -faults seed=7,retries=6,config-error=0.4 -trace"},
	{"usage_sched_slice", "-scenario telecom -manager partition -sched rr -slice 5ms"},
	{"usage_synthetic_exclusive", "-scenario synthetic -manager exclusive -tasks 8"},
	{"usage_multi2", "-scenario telecom -manager multi -boards 2"},
	{"usage_faults_trace", "-scenario multimedia -faults seed=7,retries=2,config-error=0.05 -trace"},
	{"lint_gantt", "-scenario telecom -manager partition -lint -gantt"},
	{"mgr_dynamic", "-scenario multimedia -manager dynamic"},
	{"mgr_partition", "-scenario multimedia -manager partition"},
	{"mgr_amorphous", "-scenario multimedia -manager amorphous"},
	{"mgr_overlay", "-scenario multimedia -manager overlay"},
	{"mgr_paged", "-scenario multimedia -manager paged"},
	{"mgr_multi", "-scenario multimedia -manager multi"},
	{"mgr_exclusive", "-scenario multimedia -manager exclusive"},
	{"mgr_software", "-scenario multimedia -manager software"},
	{"mgr_merged", "-scenario multimedia -manager merged"},
	{"multi3", "-scenario storage -manager multi -boards 3"},
	{"multi3_faults", "-scenario storage -manager multi -boards 3 -faults seed=7,retries=6,config-error=0.4"},
	{"merged_faults", "-manager merged -faults seed=7,retries=6,config-error=0.4"},
	{"overlay_faults", "-manager overlay -faults seed=7,retries=6,config-error=0.4"},
}

func TestGoldenStdout(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := cli(strings.Fields(g.args), &stdout, &stderr); code != 0 {
				t.Fatalf("vfpgasim %s: exit %d\n%s", g.args, code, stderr.String())
			}
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("vfpgasim %s: stdout differs from %s\ngot:\n%s", g.args, path, stdout.String())
			}
		})
	}
}

// excerptBlock matches a README code block marked as an excerpt of one
// golden: the golden's name and the block's lines.
var excerptBlock = regexp.MustCompile("(?s)<!-- golden:(\\w+) -->\n```\n(.*?)```")

// TestReadmeExcerpts holds the vfpgasim output README quotes to the
// goldens TestGoldenStdout pins: README quotes the golden's invocation,
// and the lines of the block after `<!-- golden:NAME -->` appear in
// testdata/NAME.golden in the same order ("..." marks elided lines).
func TestReadmeExcerpts(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	blocks := excerptBlock.FindAllStringSubmatch(readme, -1)
	if len(blocks) == 0 {
		t.Fatal("README marks no vfpgasim excerpt")
	}
	for _, m := range blocks {
		name, excerpt := m[1], m[2]
		args := ""
		for _, g := range goldenRuns {
			if g.name == name {
				args = g.args
			}
		}
		if args == "" {
			t.Errorf("README excerpt names %q, which TestGoldenStdout does not pin", name)
			continue
		}
		if !strings.Contains(readme, "vfpgasim "+args) {
			t.Errorf("README quotes %s without its invocation `vfpgasim %s`", name, args)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		rest := strings.Split(string(golden), "\n")
		for _, line := range strings.Split(strings.TrimSuffix(excerpt, "\n"), "\n") {
			if line == "..." {
				continue
			}
			at := slices.Index(rest, line)
			if at < 0 {
				t.Errorf("README excerpt of %s: %q is not in the golden after the lines before it", name, line)
				break
			}
			rest = rest[at+1:]
		}
	}
}

// TestMatchesDaemonJob holds the rule README's serving section states: a
// daemon job equals `vfpgasim -seed s` when the board's Seed is s+1 (the
// seed vfpgasim compiles with) and the spec's seed is s — makespan,
// per-task rows and device counters, for one engine or several. Both run
// the same job body; this checks that vfpgasim maps its flags onto the
// board and the spec a daemon submission names.
func TestMatchesDaemonJob(t *testing.T) {
	for _, c := range []struct {
		scenario, manager string
		seed              uint64
	}{
		{"multimedia", "dynamic", 1}, // vfpgasim's default flags
		{"telecom", "partition", 3},
		{"diagnosis", "overlay", 5},
		{"storage", "multi", 2},
		{"synthetic", "paged", 4},
	} {
		t.Run(c.scenario+"_"+c.manager, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-scenario", c.scenario, "-manager", c.manager, "-seed", fmt.Sprint(c.seed)}
			if code := cli(args, &stdout, &stderr); code != 0 {
				t.Fatalf("vfpgasim %v: exit %d\n%s", args, code, stderr.String())
			}

			bc := serve.DefaultBoardConfig()
			bc.Manager, bc.Seed = c.manager, c.seed+1
			pool, err := serve.NewPool([]serve.BoardConfig{bc}, serve.PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pool.Start()
			defer pool.Drain()
			spec, err := workload.BuiltinSpec(c.scenario)
			if err != nil {
				t.Fatal(err)
			}
			spec.SetSeed(c.seed)
			j, err := pool.Submit(serve.SubmitArgs{Tenant: "t", Spec: &spec})
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			res := j.Status().Result
			if res == nil {
				t.Fatalf("daemon job failed: %+v", j.Status())
			}

			// The same lines run prints, rebuilt from the daemon's result.
			msec := func(d sim.Time) string { return fmt.Sprintf("%.3f", d.Milliseconds()) }
			var rows [][]string
			for _, task := range res.Tasks {
				rows = append(rows, []string{task.Name, msec(task.Turnaround), msec(task.CPUTime), msec(task.HWTime),
					msec(task.Overhead), msec(task.ReadyWait), msec(task.BlockWait), fmt.Sprint(task.Preemptions)})
			}
			want := []string{fmt.Sprintf("makespan: %v   ctx switches: %d", res.Makespan, res.CtxSwitches)}
			for _, m := range res.Metrics {
				want = append(want,
					fmt.Sprintf("loads=%d evictions=%d readbacks=%d restores=%d rollbacks=%d", m.Loads, m.Evictions, m.Readbacks, m.Restores, m.Rollbacks),
					fmt.Sprintf("page faults=%d gc runs=%d relocations=%d blocks=%d muxed ops=%d", m.PageFaults, m.GCRuns, m.Relocations, m.Blocks, m.MuxedOps),
					fmt.Sprintf("config time=%v readback time=%v restore time=%v", m.ConfigTime, m.ReadbackTime, m.RestoreTime))
			}

			lines := strings.Split(stdout.String(), "\n")
			var got [][]string
			for i, in := 0, false; i < len(lines) && (lines[i] != "" || !in); i++ {
				if in {
					got = append(got, strings.Fields(lines[i]))
				}
				in = in || strings.HasPrefix(lines[i], "----")
			}
			if !reflect.DeepEqual(got, rows) {
				t.Errorf("per-task rows differ:\nvfpgasim %v\ndaemon   %v", got, rows)
			}
			rest := lines
			for _, w := range want {
				at := -1
				for i, l := range rest {
					if strings.HasSuffix(l, w) {
						at = i
						break
					}
				}
				if at < 0 {
					t.Fatalf("vfpgasim printed no line %q after the ones already matched:\n%s", w, stdout.String())
				}
				rest = rest[at+1:]
			}
		})
	}
}

// A flag outside its parameter's range is a one-line refusal, not a
// generator's panic.
func TestBadTasksFlagRefused(t *testing.T) {
	for _, tasks := range []string{"0", "-3", "20000"} {
		var stdout, stderr bytes.Buffer
		code := cli([]string{"-scenario", "synthetic", "-tasks", tasks}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "parameter out of range") || stdout.Len() != 0 {
			t.Errorf("-tasks %s: exit %d, stderr %q, stdout %q; want exit 1 naming the parameter", tasks, code, &stderr, &stdout)
		}
	}
}

// A board the daemon would refuse is refused before anything is
// compiled or printed, by the daemon's own check.
func TestBadBoardRefusedBeforeOutput(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-manager nosuch", "unknown manager"},
		{"-sched nosuch", "unknown scheduler"},
		{"-manager multi -boards 0", "at least one sub-board"},
	} {
		var stdout, stderr bytes.Buffer
		code := cli(strings.Fields(c.args), &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("vfpgasim %s: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr naming %q", c.args, code, &stdout, &stderr, c.want)
		}
	}
}
