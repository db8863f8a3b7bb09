package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"repro/internal/bench"
)

// goldenPath is where -write-golden puts the file, from the repo root.
const goldenPath = "benchmark/testdata/golden_seed1.json"

//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// golden pins the model's outputs. Jobs maps "manager|spec hash" to the
// job's virtual makespan: the fixed scenarios are in it for every seed,
// the synthetic ones for seed 1. Harness maps a bench.Config seed to the
// sha256 of the sixteen tables that seed renders. A wall-clock-only
// change leaves every entry as it is; a difference is a model change and
// fails the run until the file is regenerated on purpose.
type golden struct {
	Jobs    map[string]int64  `json:"jobs"`
	Harness map[string]string `json:"harness"`
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

// checker applies the output checks to every completed op. It is shared
// by all client goroutines of a run.
type checker struct {
	golden *golden

	mu       sync.Mutex
	seen     map[string]int64  // manager|spec -> first makespan this run
	tables   map[string]string // harness seed -> first table hash this run
	problems []string
}

const maxProblems = 20 // enough to diagnose; a broken model fails every job

func newChecker(g *golden) *checker {
	return &checker{golden: g, seen: map[string]int64{}, tables: map[string]string{}}
}

func (c *checker) problemLocked(format string, args ...any) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// fail records an op that did not get as far as a result to check.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.problemLocked(format, args...)
}

// failures returns what went wrong so far.
func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.problems...)
}

// job checks one completed job: it must be lint-clean, a (manager, spec)
// pair must cost the same virtual time every time it recurs, and where
// the golden file knows the pair the time must match it.
func (c *checker) job(manager, specKey string, lintClean bool, makespan int64) bool {
	key := manager + "|" + specKey
	c.mu.Lock()
	defer c.mu.Unlock()
	ok := true
	if !lintClean {
		c.problemLocked("%s: result is not lint-clean", key)
		ok = false
	}
	if first, dup := c.seen[key]; !dup {
		c.seen[key] = makespan
	} else if first != makespan {
		c.problemLocked("%s: makespan %d ns, but %d ns earlier in this run", key, makespan, first)
		ok = false
	}
	if want, known := c.golden.Jobs[key]; known && want != makespan {
		c.problemLocked("%s: makespan %d ns, golden file has %d ns (model change? regenerate with -write-golden)", key, makespan, want)
		ok = false
	}
	return ok
}

// tablesHash is the sha256 over every experiment's rendered table, in
// presentation order.
func tablesHash(outcomes []bench.Outcome) string {
	h := sha256.New()
	for _, o := range outcomes {
		fmt.Fprintf(h, "[%s]\n", o.Exp.ID)
		if o.Table != nil {
			h.Write([]byte(o.Table.String()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// harness checks one bench.Run pass: no experiment may fail, the same
// seed must render the same bytes every time, and where the golden file
// knows the seed the bytes must match it.
func (c *checker) harness(seed uint64, outcomes []bench.Outcome) bool {
	key := strconv.FormatUint(seed, 10)
	c.mu.Lock()
	defer c.mu.Unlock()
	ok := true
	for _, o := range outcomes {
		if o.Err != nil {
			c.problemLocked("harness seed %s: %s failed: %v", key, o.Exp.ID, o.Err)
			ok = false
		}
	}
	got := tablesHash(outcomes)
	if first, dup := c.tables[key]; !dup {
		c.tables[key] = got
	} else if first != got {
		c.problemLocked("harness seed %s: tables hash %s, but %s earlier in this run", key, got, first)
		ok = false
	}
	if want, known := c.golden.Harness[key]; known && want != got {
		c.problemLocked("harness seed %s: tables hash %s, golden file has %s (model change? regenerate with -write-golden)", key, got, want)
		ok = false
	}
	return ok
}

// observed returns what this run saw, in golden-file form.
func (c *checker) observed() *golden {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := &golden{Jobs: map[string]int64{}, Harness: map[string]string{}}
	for k, v := range c.seen {
		g.Jobs[k] = v
	}
	for k, v := range c.tables {
		g.Harness[k] = v
	}
	return g
}

// mergeGolden folds what one run observed into dst.
func mergeGolden(dst, obs *golden) {
	for k, v := range obs.Jobs {
		dst.Jobs[k] = v
	}
	for k, v := range obs.Harness {
		dst.Harness[k] = v
	}
}

func writeGolden(path string, g *golden) error {
	b, err := json.MarshalIndent(g, "", " ") // map keys marshal sorted: the file diffs
	if err != nil {
		return fmt.Errorf("write golden: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write golden: %w", err)
	}
	return nil
}
