package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Equal resolved specs share one *Set: a builtin spelled out, the same
// scenario with no block (it builds the defaults), and the nil block off
// the wire. The shared set is the one a fresh build makes.
func TestSetCacheSharesEqualResolvedSpecs(t *testing.T) {
	var c SetCache
	for _, name := range Scenarios() {
		full, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		bare := Spec{Scenario: name}
		wire, err := DecodeJSON([]byte(fmt.Sprintf(`{"scenario":%q}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		first, err := c.Build(&full)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Spec{&bare, wire, &full} {
			got, err := c.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			if got != first {
				t.Errorf("%s: %+v built a set of its own, want the cached one", name, *s)
			}
		}
		fresh, err := full.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, fresh) {
			t.Errorf("%s: the cached set differs from a fresh build", name)
		}
	}
	n := int64(len(Scenarios()))
	if st := c.Stats(); st.Misses != n || st.Hits != 3*n {
		t.Errorf("stats %+v, want %d misses and %d hits", st, n, 3*n)
	}
}

// changed returns v with a different value of its kind that every
// Validate still accepts, or false for a kind the table does not know.
func changed(v reflect.Value) (reflect.Value, bool) {
	w := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		w.SetInt(v.Int() + 1)
	case reflect.Uint64:
		w.SetUint(v.Uint() + 1)
	case reflect.Float64:
		w.SetFloat(v.Float() / 2)
		if v.Float() == 0 {
			w.SetFloat(0.5)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.String {
			return w, false
		}
		w.Set(reflect.ValueOf([]string{"parity16", "adder8"}))
	default:
		return w, false
	}
	return w, true
}

// A change to any one field of any scenario's parameter block misses:
// the table walks every field by reflection, so a field added to a
// config and left out of the key fails here. Each changed spec is one
// Validate accepts, so the miss is a build, not a refusal.
func TestSetCacheKeyCoversEveryField(t *testing.T) {
	spec := reflect.TypeOf(Spec{})
	blocks := 0
	for i := 0; i < spec.NumField(); i++ {
		f := spec.Field(i)
		if f.Type.Kind() != reflect.Pointer {
			continue
		}
		blocks++
		scenario := f.Tag.Get("json")
		scenario = scenario[:len(scenario)-len(",omitempty")]
		base, err := BuiltinSpec(scenario)
		if err != nil {
			t.Fatalf("block %s: %v", f.Name, err)
		}
		var c SetCache
		baseSet, err := c.Build(&base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := reflect.ValueOf(base).Field(i).Elem()
		for k := 0; k < cfg.NumField(); k++ {
			name := fmt.Sprintf("%s.%s", scenario, cfg.Type().Field(k).Name)
			v, ok := changed(cfg.Field(k))
			if !ok {
				t.Errorf("%s: kind %s not in the table", name, cfg.Field(k).Kind())
				continue
			}
			mod := reflect.New(cfg.Type())
			mod.Elem().Set(cfg)
			mod.Elem().Field(k).Set(v)
			s := Spec{Scenario: scenario}
			reflect.ValueOf(&s).Elem().Field(i).Set(mod)
			misses := c.Stats().Misses
			got, err := c.Build(&s)
			if err != nil {
				t.Errorf("%s: changed spec refused: %v", name, err)
				continue
			}
			if got == baseSet || c.Stats().Misses != misses+1 {
				t.Errorf("%s: changing it hit the base spec's entry", name)
			}
		}
	}
	if blocks != NumScenarios {
		t.Errorf("%d parameter blocks, want one per scenario (%d)", blocks, NumScenarios)
	}
}

// However many distinct specs come, and however large, the ops the cache
// holds never pass MaxCachedOps, and the set just built stays cached.
func TestSetCacheBounded(t *testing.T) {
	var c SetCache
	sizes := []int{MaxSpecOps / 2, MaxSpecOps / 3, 100, MaxSpecOps, 7, MaxSpecOps / 2, 2 * MaxSpecOps / 3, 40}
	for i := 0; i < 24; i++ {
		sy := DefaultSynthetic()
		sy.Tasks = 2
		sy.OpsPerTask = sizes[i%len(sizes)] / (2 * sy.Tasks)
		sy.Seed = uint64(i)
		s := Spec{Scenario: "synthetic", Synthetic: &sy}
		set, err := c.Build(&s)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Ops > MaxCachedOps {
			t.Fatalf("spec %d: %d ops held, bound %d", i, st.Ops, MaxCachedOps)
		}
		if again, _ := c.Build(&s); again != set || c.Stats().Hits != st.Hits+1 {
			t.Fatalf("spec %d (%d ops): not cached right after its build", i, set.Ops())
		}
	}
	if st := c.Stats(); st.Misses != 24 || st.Ops == 0 {
		t.Errorf("stats %+v, want 24 misses and sets held", st)
	}
}

// A refused spec is refused, never answered from the cache: a block for
// another scenario keys like the valid spec without it.
func TestSetCacheRefusesInvalid(t *testing.T) {
	var c SetCache
	good := Spec{Scenario: "telecom"}
	if _, err := c.Build(&good); err != nil {
		t.Fatal(err)
	}
	bad := Spec{Scenario: "telecom", Multimedia: &MultimediaConfig{}}
	if set, err := c.Build(&bad); err == nil {
		t.Fatalf("a telecom spec with multimedia parameters built %d tasks", len(set.Tasks))
	}
	var nilCache *SetCache
	if _, err := nilCache.Build(&bad); err == nil {
		t.Fatal("a nil cache built a refused spec")
	}
}

// Builds racing from an empty cache end on one set per spec: a build
// asked for while an equal one runs waits for it, so each spec is built
// once, every caller holds the set later callers get, and the ops held
// count it once.
func TestSetCacheConcurrentBuilds(t *testing.T) {
	var c SetCache
	specs := BuiltinSpecs()
	const workers = 8
	got := make([][]*Set, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range specs {
				set, err := c.Build(&specs[(i+w)%len(specs)])
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], set)
			}
		}(w)
	}
	wg.Wait()
	ops := 0
	for i := range specs {
		want, err := c.Build(&specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ops += want.Ops()
		for w := range got {
			if got[w][(i-w%len(specs)+len(specs))%len(specs)] != want {
				t.Errorf("worker %d holds a %s set the cache does not", w, specs[i].Scenario)
			}
		}
	}
	if st := c.Stats(); st.Ops != ops || st.Misses != int64(len(specs)) {
		t.Errorf("%d ops held after %d builds, want %d and %d: each set once", st.Ops, st.Misses, ops, len(specs))
	}
}

// A hit on a builtin allocates nothing: the key is resolved on the stack.
func TestSetCacheHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	var c SetCache
	for _, spec := range BuiltinSpecs() {
		bare := Spec{Scenario: spec.Scenario}
		for _, s := range []*Spec{&spec, &bare} {
			if _, err := c.Build(s); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = c.Build(s) }); n != 0 {
				t.Errorf("%s: a hit allocates %v times, want 0", spec.Scenario, n)
			}
		}
	}
}

func BenchmarkSetCacheHit(b *testing.B) {
	var c SetCache
	spec, err := BuiltinSpec("multimedia")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Build(&spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Build(&spec); err != nil {
			b.Fatal(err)
		}
	}
}
