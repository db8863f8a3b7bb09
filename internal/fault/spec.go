package fault

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// ParseSpec parses the -faults command-line grammar: comma-separated
// entries of
//
//	seed=N            stream seed (default 1)
//	retries=N         bounded retries per op (default 3; 'retries=-1' disables)
//	backoff=DUR       base simulated backoff, doubling per retry (default 100us)
//	<kind>=P          per-attempt probability of kind, P in [0,1]
//	<kind>@N          scripted: fire kind on its site's N-th attempt (repeatable,
//	                  each attempt at most once)
//
// with kinds config-error, config-timeout, readback-flip,
// restore-mismatch, pin-glitch. Example:
//
//	seed=42,retries=2,backoff=50us,config-error=0.1,readback-flip@3
func ParseSpec(s string) (Plan, error) {
	p := Plan{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return p, fmt.Errorf("fault: empty spec")
	}
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		if i := strings.IndexByte(ent, '@'); i >= 0 {
			kind, ok := ParseKind(ent[:i])
			if !ok {
				return p, fmt.Errorf("fault: unknown kind %q in %q", ent[:i], ent)
			}
			n, err := strconv.Atoi(ent[i+1:])
			if err != nil || n < 1 {
				return p, fmt.Errorf("fault: bad attempt number in %q (want kind@N, N >= 1)", ent)
			}
			if slices.Contains(p.Script[kind], n) {
				return p, fmt.Errorf("fault: %s@%d repeats attempt %d; an attempt fires at most once", kind, n, n)
			}
			if p.Script == nil {
				p.Script = map[Kind][]int{}
			}
			p.Script[kind] = append(p.Script[kind], n)
			continue
		}
		i := strings.IndexByte(ent, '=')
		if i < 0 {
			return p, fmt.Errorf("fault: bad entry %q (want key=value or kind@N)", ent)
		}
		key, val := ent[:i], ent[i+1:]
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("fault: bad seed %q", val)
			}
			p.Seed = n
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n > MaxRetries {
				return p, fmt.Errorf("fault: bad retries %q (want -1..%d)", val, MaxRetries)
			}
			if n <= 0 {
				n = -1 // distinguish "no retries" from "default"
			}
			p.Retries = n
		case "backoff":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return p, fmt.Errorf("fault: bad backoff %q", val)
			}
			p.Backoff = sim.Time(d.Nanoseconds())
		default:
			kind, ok := ParseKind(key)
			if !ok {
				return p, fmt.Errorf("fault: unknown key %q in %q", key, ent)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("fault: bad probability %q for %s (want [0,1])", val, kind)
			}
			if p.Prob == nil {
				p.Prob = map[Kind]float64{}
			}
			p.Prob[kind] = f
		}
	}
	for pt, kinds := range pointKinds {
		sum := 0.0
		for _, k := range kinds {
			sum += p.Prob[k]
		}
		if sum > 1 {
			return p, fmt.Errorf("fault: probabilities at the %v point sum to %.3f > 1", Point(pt), sum)
		}
	}
	for _, ns := range p.Script {
		sort.Ints(ns)
	}
	return p, nil
}

// String renders the plan in the canonical spec grammar, parseable by
// ParseSpec.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	if p.Retries != 0 {
		r := p.Retries
		if r < 0 {
			r = 0
		}
		fmt.Fprintf(&b, ",retries=%d", r)
	}
	if p.Backoff > 0 {
		fmt.Fprintf(&b, ",backoff=%s", time.Duration(p.Backoff))
	}
	for _, k := range Kinds() {
		if f, ok := p.Prob[k]; ok && f > 0 {
			fmt.Fprintf(&b, ",%s=%s", k, strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	for _, k := range Kinds() {
		ns := append([]int(nil), p.Script[k]...)
		sort.Ints(ns)
		for _, n := range ns {
			fmt.Fprintf(&b, ",%s@%d", k, n)
		}
	}
	return b.String()
}
