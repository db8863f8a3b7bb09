package serve

// The /metrics contract: a fixed scenario produces byte-identical
// exposition text (pinned by a golden file), and every line obeys the
// Prometheus text-format rules an expfmt parser would enforce.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenScenario drives one board through a fixed job sequence and
// returns the exposition text and every job's status: two jobs for
// tenant a (the second a full compile-cache hit), one throttled a
// submission, one job for tenant b. The golden file's tenants are alpha
// and beta.
func goldenScenario(t *testing.T, a, b string) (string, []JobStatus) {
	t.Helper()
	s := newTestServer(t, Config{
		Tenant:  TenantLimits{Rate: 1, Burst: 2},
		Version: "test",
		Now:     func() time.Time { return time.Unix(1000, 0) },
	})
	s.Start()
	defer s.Drain()

	var jobs []JobStatus
	run := func(tenant, scenario string) {
		j := submitOK(t, s, tenant, scenario)
		waitDone(t, j)
		jobs = append(jobs, j.Status())
	}
	run(a, "multimedia")
	run(a, "multimedia")
	if rec := do(t, s, "POST", "/v1/jobs", submitBody(t, a, "multimedia")); rec.Code != 429 {
		t.Fatalf("throttle submit: got %d, want 429", rec.Code)
	}
	run(b, "telecom")

	var buf bytes.Buffer
	if err := s.writeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), jobs
}

func TestMetricsGolden(t *testing.T) {
	got, _ := goldenScenario(t, "alpha", "beta")
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("metrics exposition diverged from golden file (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*")*\})? -?[0-9]+(\.[0-9]+)?$`)
)

// TestMetricsWellFormed validates the exposition line by line against
// the text-format grammar: every sample belongs to a family declared by
// a preceding TYPE line, families are declared once, and no line is
// anything other than HELP, TYPE, or a sample.
func TestMetricsWellFormed(t *testing.T) {
	text, _ := goldenScenario(t, "alpha", "beta")
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end in a newline")
	}
	declared := map[string]string{} // family -> type
	// belongs reports whether a sample name is owned by a declared
	// family: its own name, or — for summary/histogram families — the
	// family name plus a _sum/_count (or _bucket) suffix.
	belongs := func(name string) bool {
		if declared[name] != "" {
			return true
		}
		for _, sfx := range []string{"_sum", "_count", "_bucket"} {
			base := strings.TrimSuffix(name, sfx)
			if base == name {
				continue
			}
			if typ := declared[base]; typ == "summary" || typ == "histogram" {
				return sfx != "_bucket" || typ == "histogram"
			}
		}
		return false
	}
	samples := 0
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			if declared[m[1]] != "" {
				t.Errorf("line %d: family %s declared twice", i+1, m[1])
			}
			declared[m[1]] = m[2]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed sample: %q", i+1, line)
				continue
			}
			if !belongs(m[1]) {
				t.Errorf("line %d: sample for undeclared family %s", i+1, m[1])
			}
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
	// Spot-check the counters the scenario pins.
	for _, want := range []string{
		`vfpgad_admission_total{tenant="alpha",decision="admitted"} 2`,
		`vfpgad_admission_total{tenant="alpha",decision="throttled"} 1`,
		`vfpgad_jobs_total{tenant="alpha",outcome="completed"} 2`,
		`vfpgad_jobs_total{tenant="beta",outcome="completed"} 1`,
		`vfpgad_tenant_service_time_ns_count{tenant="alpha"} 2`,
		`vfpgad_tenant_service_time_ns_count{tenant="beta"} 1`,
		`vfpgad_build_info{version="test"} 1`,
		`vfpgad_spec_cache_lookups_total{result="hit"} 1`,
		`vfpgad_spec_cache_lookups_total{result="miss"} 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTenantsAreLabels runs the golden scenario with its tenants renamed
// in an order-keeping way: the exposition is the golden file's with the
// tenant label values mapped back, and every job's status is the
// original's with its tenant mapped back.
func TestTenantsAreLabels(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, orig := goldenScenario(t, "alpha", "beta")
	text, jobs := goldenScenario(t, "t-alpha", "t-beta")
	back := map[string]string{"t-alpha": "alpha", "t-beta": "beta"}
	label := strings.NewReplacer(`tenant="t-alpha"`, `tenant="alpha"`, `tenant="t-beta"`, `tenant="beta"`)
	if got := label.Replace(text); got != string(want) {
		t.Errorf("renamed tenants' exposition, mapped back, diverged from the golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if len(jobs) != len(orig) {
		t.Fatalf("%d jobs renamed, %d original", len(jobs), len(orig))
	}
	for i, st := range jobs {
		st.Tenant = back[st.Tenant]
		if !reflect.DeepEqual(st, orig[i]) {
			t.Errorf("job %d: renamed status, mapped back, %+v; original %+v", i, st, orig[i])
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	m.Series("x_total", "1", "label", "a\"b\\c\nd")
	if m.err != nil {
		t.Fatal(m.err)
	}
	want := `x_total{label="a\"b\\c\nd"} 1` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("escaped line = %q, want %q", got, want)
	}
	if !sampleRe.MatchString(strings.TrimSuffix(buf.String(), "\n")) {
		t.Errorf("escaped line does not parse: %q", buf.String())
	}
}

// scrapedServer returns a started nine-board server, one board per
// manager and a tenant per board, with every board's counters filled by
// a job: what one scrape of warm_http's server reads.
func scrapedServer(tb testing.TB) *Server {
	tb.Helper()
	var boards []BoardConfig
	for _, m := range Managers {
		bc := DefaultBoardConfig()
		bc.Manager = m
		boards = append(boards, bc)
	}
	s, err := New(Config{Boards: boards, Tenant: TenantLimits{Rate: 0}, Version: "test"})
	if err != nil {
		tb.Fatal(err)
	}
	s.Start()
	tb.Cleanup(s.Drain)
	for b := range boards {
		j, err := s.pool.Submit(SubmitArgs{Tenant: fmt.Sprintf("tenant%d", b), Spec: specFor(tb, "telecom"), Board: &b})
		if err != nil {
			tb.Fatal(err)
		}
		<-j.Done()
	}
	return s
}

// TestMetricsScrapeAllocs pins what one full scrape of scrapedServer
// allocates. The writer appends every line into one buffer it keeps, so
// what is left is per scrape and per board (the board infos and their
// snapshots), not per series. The budget sits ~18 % above today's 38
// (2 698 while every series built its line in a fresh builder).
func TestMetricsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	s := scrapedServer(t)
	n := testing.AllocsPerRun(20, func() {
		if err := s.writeMetrics(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one scrape: %.0f allocations", n)
	if n > 45 {
		t.Errorf("one scrape allocates %.0f times, want at most 45", n)
	}
}

func BenchmarkMetricsScrape(b *testing.B) {
	s := scrapedServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.writeMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
