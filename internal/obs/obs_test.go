package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeFloatCounter(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	f := NewFloatCounter()
	f.Add(1.5)
	f.Add(2.25)
	if f.Value() != 3.75 {
		t.Fatalf("float counter = %v, want 3.75", f.Value())
	}
	g := NewGauge()
	g.Set(7)
	g.Add(-2.5)
	if g.Value() != 4.5 {
		t.Fatalf("gauge = %v, want 4.5", g.Value())
	}
}

// The instruments must stay exact under concurrent bumps — they are the
// serving hot path's only bookkeeping.
func TestInstrumentsConcurrent(t *testing.T) {
	c := NewCounter()
	f := NewFloatCounter()
	h := NewHistogram([]float64{1, 2, 4})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				f.Add(0.5)
				h.Observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if f.Value() != workers*per*0.5 {
		t.Fatalf("float counter = %v, want %v", f.Value(), workers*per*0.5)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1} // ≤1, (1,5], (5,10], +Inf
	bounds, counts := h.Buckets()
	if !equalFloats(bounds, []float64{1, 5, 10}) || len(counts) != len(want) {
		t.Fatalf("Buckets() = %v, %v", bounds, counts)
	}
	for i, w := range want {
		if got := counts[i]; got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Sum() != 111.5 {
		t.Fatalf("sum = %v, want 111.5", h.Sum())
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalFloats(exp, want) {
		t.Fatalf("ExpBuckets = %v, want %v", exp, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Registration is idempotent: the same (name, labels) returns the same
// handle, and distinct label sets are distinct series.
func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("lane", "a"))
	b := r.Counter("x_total", "help", L("lane", "a"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct handles")
	}
	c := r.Counter("x_total", "help", L("lane", "b"))
	if a == c {
		t.Fatal("distinct labels shared a handle")
	}
	// Label order must not matter.
	d1 := r.Gauge("y", "", L("a", "1"), L("b", "2"))
	d2 := r.Gauge("y", "", L("b", "2"), L("a", "1"))
	if d1 != d2 {
		t.Fatal("label order produced distinct series")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering clash_total as a gauge did not panic")
		}
	}()
	r.Gauge("clash_total", "")
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "")
}

// sampleLine matches one exposition sample: name, optional labels, value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (?:[-+]?[0-9].*|[-+]Inf|NaN)$`)

// ParsePrometheusText is the test-side format check shared with the CLI
// end-to-end tests: every line must be a comment or a well-formed sample.
func parsePrometheusText(t *testing.T, text string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		samples[line[:i]] = line[i+1:]
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", L("lane", "m/software")).Add(3)
	r.FloatCounter("energy_joules_total", "energy").Add(0.5)
	r.Gauge("depth", "queue depth").Set(7)
	r.GaugeFunc("uptime_seconds", "uptime", func() float64 { return 12.5 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01}, L("lane", "m/software"))
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := parsePrometheusText(t, out)

	checks := map[string]string{
		`req_total{lane="m/software"}`: "3",
		`energy_joules_total`:          "0.5",
		`depth`:                        "7",
		`uptime_seconds`:               "12.5",
		`lat_seconds_bucket{lane="m/software",le="0.001"}`: "1",
		`lat_seconds_bucket{lane="m/software",le="0.01"}`:  "2",
		`lat_seconds_bucket{lane="m/software",le="+Inf"}`:  "3",
		`lat_seconds_count{lane="m/software"}`:             "3",
	}
	for key, want := range checks {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %s = %q (present %v), want %q\nfull output:\n%s", key, got, ok, want, out)
		}
	}
	for _, want := range []string{"# TYPE req_total counter", "# TYPE lat_seconds histogram", "# HELP depth queue depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition output is not deterministic")
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		2.5:          "2.5",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("v", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{v="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaped sample missing; got:\n%s", b.String())
	}
}

// Regression: two goroutines racing to register the same (name, labels)
// series must share one instrument handle — instrument creation happens
// under the registry lock, so no handle (and none of its increments) can
// be silently dropped.
func TestRegistryConcurrentRegistrationSharesHandle(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r.Counter("shared_total", "", L("lane", "x")).Inc()
			r.FloatCounter("shared_joules_total", "").Add(1)
			r.Histogram("shared_seconds", "", []float64{1, 2}).Observe(0.5)
		}()
	}
	close(start)
	wg.Wait()
	if got := r.Counter("shared_total", "", L("lane", "x")).Value(); got != workers {
		t.Fatalf("counter = %d, want %d (a racing registration dropped a handle)", got, workers)
	}
	if got := r.FloatCounter("shared_joules_total", "").Value(); got != workers {
		t.Fatalf("float counter = %v, want %d", got, workers)
	}
	if got := r.Histogram("shared_seconds", "", []float64{1, 2}).Count(); got != workers {
		t.Fatalf("histogram count = %d, want %d", got, workers)
	}
}

// Regression (run under -race): a /metrics scrape concurrent with lazy
// series registration — the first-predict lane-creation path — must not
// race on the family series slices or instrument fields. WritePrometheus
// snapshots both under the registry lock.
func TestScrapeConcurrentWithRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				lane := L("lane", string(rune('a'+w))+string(rune('a'+i%8)))
				r.Counter("scrape_req_total", "", lane).Inc()
				r.GaugeFunc("scrape_depth", "", func() float64 { return float64(i) }, lane)
				r.Histogram("scrape_seconds", "", []float64{0.01, 0.1}, lane).Observe(0.05)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() > 0 { // the scrape may beat the very first registration
			parsePrometheusText(t, b.String())
		}
	}
	close(done)
	wg.Wait()
}

// The whole point of the handle design: an observation is atomics only.
func TestObservationsDoNotAllocate(t *testing.T) {
	c := NewCounter()
	f := NewFloatCounter()
	g := NewGauge()
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		f.Add(0.25)
		g.Set(4)
		h.Observe(0.05)
	}); allocs != 0 {
		t.Fatalf("observations allocate %v per run, want 0", allocs)
	}
	// A disabled call site (nil tracer) must be free too.
	var tr *Tracer
	if allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start("track", "name")
		sp.End()
	}); allocs != 0 {
		t.Fatalf("nil-tracer span allocates %v per run, want 0", allocs)
	}
}
