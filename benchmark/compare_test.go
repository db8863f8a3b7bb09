package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestVerdictAppliesTheBoundInTheMetricsDirection(t *testing.T) {
	cases := []struct {
		a, b, bound float64
		better      string
		want        string
	}{
		{100, 109, 0.10, "lower", "ok"},
		{100, 111, 0.10, "lower", "worse"},
		{100, 89, 0.10, "lower", "better"},
		{100, 91, 0.10, "higher", "ok"},
		{100, 89, 0.10, "higher", "worse"},
		{100, 111, 0.10, "higher", "better"},
		{100, 100, 0, "lower", "ok"},
		// Near-zero base: a ratio means nothing, so the pair is compared by
		// difference.
		{0, 0, 0.10, "lower", "ok"},
		{0, 1e-12, 0.10, "lower", "ok"},
		{0, 3, 0.10, "lower", "worse"},
		{0, 3, 0.10, "higher", "better"},
	}
	for _, c := range cases {
		ratio, got := verdict(c.a, c.b, c.bound, c.better)
		if got != c.want {
			t.Errorf("verdict(%v -> %v, bound %v, %s better) = %s, want %s", c.a, c.b, c.bound, c.better, got, c.want)
		}
		if c.a != 0 && math.Abs(ratio-c.b/c.a) > 1e-12 {
			t.Errorf("ratio %v for %v over base %v", ratio, c.b, c.a)
		}
	}
}

func testSpec() *benchSpec {
	s := &benchSpec{
		EndToEnd: []specMetric{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.07},
		},
	}
	for _, n := range []string{"warm_http", "fleet_open"} {
		s.Workloads = append(s.Workloads, specWorkload{Name: n})
	}
	return s
}

func testResult(p50, tput, virt float64) *resultFile {
	wl := func() *workloadResult {
		return &workloadResult{Correct: true,
			EndToEnd: map[string]metric{"latency_p50_ms": {Value: p50, Unit: "ms"}, "throughput_ops_s": {Value: tput, Unit: "1/s"}},
			PerLayer: map[string]metric{"core.virtual_ms_per_job": {Value: virt, Unit: "virtual_ms"}, "serve.http_submit_us": {Value: 20, Unit: "us"}},
		}
	}
	return &resultFile{Workloads: map[string]*workloadResult{"warm_http": wl(), "fleet_open": wl()}}
}

func TestCompareFlagsWorseRowsAndModelChanges(t *testing.T) {
	var out bytes.Buffer
	if compareResults(&out, testSpec(), testResult(1.0, 2000, 226.1), testResult(1.05, 1950, 226.1)) {
		t.Errorf("inside every bound, yet reported worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("identical virtual time not reported as same:\n%s", out.String())
	}

	out.Reset()
	if !compareResults(&out, testSpec(), testResult(1.0, 2000, 226.1), testResult(1.0, 1800, 226.1)) {
		t.Errorf("throughput down 10%% on a 7%% bound, yet not worse:\n%s", out.String())
	}

	// A different virtual time is a model change on warm_http, where the
	// benchmark pins every job to a board, and only a layer reading on
	// fleet_open, where the policy routes them.
	out.Reset()
	a, b := testResult(1.0, 2000, 226.1), testResult(1.0, 2000, 226.1)
	b.Workloads["fleet_open"].PerLayer["core.virtual_ms_per_job"] = metric{Value: 230, Unit: "virtual_ms"}
	if compareResults(&out, testSpec(), a, b) {
		t.Errorf("fleet_open virtual time differs and was treated as a model change:\n%s", out.String())
	}
	b.Workloads["warm_http"].PerLayer["core.virtual_ms_per_job"] = metric{Value: 230, Unit: "virtual_ms"}
	out.Reset()
	if !compareResults(&out, testSpec(), a, b) || !strings.Contains(out.String(), "model changed") {
		t.Errorf("warm_http virtual time differs and was not reported:\n%s", out.String())
	}

	out.Reset()
	b = testResult(1.0, 2000, 226.1)
	b.Workloads["warm_http"].Failed = 3
	if !compareResults(&out, testSpec(), a, b) {
		t.Errorf("new failed ops not reported as worse:\n%s", out.String())
	}
}
