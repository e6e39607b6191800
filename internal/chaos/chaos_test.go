package chaos

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// The spec grammar, table-driven: every action, both activation forms, fire
// caps, and the error cases go vet's table idiom keeps honest.
func TestParse(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []Rule
		err  bool
	}{
		{
			name: "latency with rate",
			spec: "serve.predict=latency:150ms@0.5",
			want: []Rule{{Point: "serve.predict", Action: ActLatency, Delay: 150 * time.Millisecond, Rate: 0.5}},
		},
		{
			name: "http with nth",
			spec: "router.forward=http:503@3n",
			want: []Rule{{Point: "router.forward", Action: ActHTTP, Code: 503, Nth: 3}},
		},
		{
			name: "default activation is every call",
			spec: "pool.probe=error",
			want: []Rule{{Point: "pool.probe", Action: ActError, Nth: 1}},
		},
		{
			name: "blackhole with fire cap",
			spec: "pool.probe=blackhole@1nx2",
			want: []Rule{{Point: "pool.probe", Action: ActBlackhole, Nth: 1, MaxFires: 2}},
		},
		{
			name: "rate with fire cap",
			spec: "serve.predict=corrupt@0.25x10",
			want: []Rule{{Point: "serve.predict", Action: ActCorrupt, Rate: 0.25, MaxFires: 10}},
		},
		{
			name: "multiple clauses",
			spec: "a=drip:20ms;b=truncate@0.1; c=http:500@2n",
			want: []Rule{
				{Point: "a", Action: ActDrip, Delay: 20 * time.Millisecond, Nth: 1},
				{Point: "b", Action: ActTruncate, Rate: 0.1},
				{Point: "c", Action: ActHTTP, Code: 500, Nth: 2},
			},
		},
		{name: "empty spec", spec: "", err: true},
		{name: "only separators", spec: ";;", err: true},
		{name: "no point", spec: "=error", err: true},
		{name: "no action", spec: "p=", err: true},
		{name: "unknown action", spec: "p=explode", err: true},
		{name: "latency without duration", spec: "p=latency", err: true},
		{name: "latency with bad duration", spec: "p=latency:fast", err: true},
		{name: "http without code", spec: "p=http", err: true},
		{name: "http with non-5xx-ish code", spec: "p=http:200", err: true},
		{name: "error with stray argument", spec: "p=error:1", err: true},
		{name: "rate out of range", spec: "p=error@1.5", err: true},
		{name: "rate zero", spec: "p=error@0", err: true},
		{name: "nth zero", spec: "p=error@0n", err: true},
		{name: "bad fire cap", spec: "p=error@1nx0", err: true},
		{name: "garbage activation", spec: "p=error@soon", err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Parse(tc.spec)
			if tc.err {
				if err == nil {
					t.Fatalf("Parse(%q) = %+v, want error", tc.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
		})
	}
}

// A nil engine and an engine with no rules are both no-ops.
func TestEvalNoOpDefaults(t *testing.T) {
	var nilEngine *Engine
	if out := nilEngine.Eval("anything"); out.Action != ActNone {
		t.Fatalf("nil engine fired: %+v", out)
	}
	e := New(1)
	if out := e.Eval("anything"); out.Action != ActNone {
		t.Fatalf("empty engine fired: %+v", out)
	}
	if st := nilEngine.Status(); len(st.Points) != 0 {
		t.Fatalf("nil engine status: %+v", st)
	}
}

// Rate activation is reproducible: same seed, same firing sequence.
func TestEvalRateDeterministic(t *testing.T) {
	fire := func(seed int64) []bool {
		e := New(seed)
		if err := e.Set([]Rule{{Point: "p", Action: ActError, Rate: 0.4}}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = e.Eval("p").Action != ActNone
		}
		return out
	}
	a, b := fire(42), fire(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different firing sequences")
	}
	hits := 0
	for _, f := range a {
		if f {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.4 fired %d/%d times — not a rate at all", hits, len(a))
	}
	// A different seed should differ somewhere (64 draws at 0.4 colliding is
	// astronomically unlikely — and deterministic anyway, so no flake).
	if reflect.DeepEqual(a, fire(43)) {
		t.Fatal("different seeds produced identical sequences")
	}
}

// Reseed + Set replays a scenario exactly.
func TestReseedReplays(t *testing.T) {
	e := New(7)
	rules := []Rule{{Point: "p", Action: ActHTTP, Code: 500, Rate: 0.3}}
	run := func() []Action {
		out := make([]Action, 32)
		for i := range out {
			out[i] = e.Eval("p").Action
		}
		return out
	}
	if err := e.Set(rules); err != nil {
		t.Fatal(err)
	}
	first := run()
	e.Reseed(7)
	if err := e.Set(rules); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, run()) {
		t.Fatal("reseeded run diverged")
	}
}

func TestEvalNthAndCap(t *testing.T) {
	e := New(1)
	if err := e.Set([]Rule{{Point: "p", Action: ActError, Nth: 3, MaxFires: 2}}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 12; i++ {
		if e.Eval("p").Action != ActNone {
			fired = append(fired, i)
		}
	}
	if !reflect.DeepEqual(fired, []int{3, 6}) {
		t.Fatalf("nth=3 cap=2 fired on calls %v, want [3 6]", fired)
	}
	st := e.Status()
	if len(st.Points) != 1 || st.Points[0].Calls != 12 || st.Points[0].Fires != 2 {
		t.Fatalf("status = %+v, want 12 calls / 2 fires", st.Points)
	}
}

// First matching rule wins; later rules still fire when earlier ones are
// capped out.
func TestEvalRuleOrderAndFallthrough(t *testing.T) {
	e := New(1)
	if err := e.Set([]Rule{
		{Point: "p", Action: ActError, Nth: 1, MaxFires: 1},
		{Point: "p", Action: ActHTTP, Code: 503, Nth: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if out := e.Eval("p"); out.Action != ActError {
		t.Fatalf("first call: %+v, want injected error", out)
	}
	if out := e.Eval("p"); out.Action != ActHTTP || out.Code != 503 {
		t.Fatalf("second call: %+v, want http 503 after the error rule capped out", out)
	}
}

func TestEngineSleepHonorsContext(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	e.Sleep(ctx, time.Hour)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Sleep ignored a canceled context for %v", elapsed)
	}
}

func TestSetRejectsInvalidRules(t *testing.T) {
	e := New(1)
	bad := []Rule{
		{Point: "", Action: ActError, Nth: 1},
		{Point: "p", Action: ActLatency, Nth: 1},             // no delay
		{Point: "p", Action: ActError},                       // no activation
		{Point: "p", Action: ActError, Rate: 0.5, Nth: 2},    // both activations
		{Point: "p", Action: Action("nope"), Nth: 1},         // unknown action
		{Point: "p", Action: ActHTTP, Code: 302, Nth: 1},     // non-failure code
		{Point: "p", Action: ActError, Nth: 1, MaxFires: -1}, // negative cap
	}
	for i, r := range bad {
		if err := e.Set([]Rule{r}); err == nil {
			t.Errorf("rule %d (%+v) accepted, want error", i, r)
		}
	}
}
