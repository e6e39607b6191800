package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(16)
	sp := tr.Start("layer0", "dense", L("rows", "4"))
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Start("layer1", "pool").End()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d spans, want 2", tr.Len())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", tr.Dropped())
	}
	e := tr.events[0]
	if e.track != "layer0" || e.name != "dense" || e.durUS < 1 {
		t.Fatalf("first span = %+v", e)
	}
}

func TestTracerBoundedCapacity(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start("t", "s").End()
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4 (capacity)", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Start("worker", "span").End()
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("len = %d, want 800", tr.Len())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	tr.Start("beta", "b-span").End()
	tr.Start("alpha", "a-span", L("k", "v")).End()
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Two metadata events (sorted tracks: alpha=0, beta=1) plus two spans.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(doc.TraceEvents), b.String())
	}
	meta := map[int]string{}
	var spans int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta[e.Tid] = e.Args["name"]
		case "X":
			spans++
			if e.Name == "a-span" {
				if e.Tid != 0 || e.Args["k"] != "v" {
					t.Fatalf("a-span on tid %d with args %v", e.Tid, e.Args)
				}
			}
		}
	}
	if spans != 2 || meta[0] != "alpha" || meta[1] != "beta" {
		t.Fatalf("spans=%d meta=%v", spans, meta)
	}
}

// The export is pinned byte for byte, because perfbench parses it: tracks
// numbered in sorted-name order, slices ordered by (ts, tid, name) and then
// by record order, label values HTML-escaped, and an empty tracer still
// writes an event array.
func TestWriteChromeTraceBytes(t *testing.T) {
	tr := NewTracer(8)
	for _, e := range []spanEvent{
		{track: "rna", name: "fc1", startUS: 40, durUS: 7},
		{track: "loadgen", name: "request", labels: []Label{L("id", "7"), L("note", "a<b&c")}, startUS: 10, durUS: 50},
		{track: "rna", name: "cv1", startUS: 40, durUS: 3},
		{track: "router", name: "handler", labels: []Label{L("id", "7")}, startUS: 12, durUS: 30},
		{track: "loadgen", name: "request", startUS: 40, durUS: 1},
		{track: "rna", name: "cv1", startUS: 40, durUS: 9},
	} {
		tr.events[tr.n.Add(1)-1] = e
	}
	const want = `{"traceEvents":[{"name":"thread_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":0,"args":{"name":"loadgen"}},{"name":"thread_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":1,"args":{"name":"rna"}},{"name":"thread_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":2,"args":{"name":"router"}},{"name":"request","cat":"obs-span","ph":"X","ts":10,"dur":50,"pid":1,"tid":0,"args":{"id":"7","note":"a\u003cb\u0026c"}},{"name":"handler","cat":"obs-span","ph":"X","ts":12,"dur":30,"pid":1,"tid":2,"args":{"id":"7"}},{"name":"request","cat":"obs-span","ph":"X","ts":40,"dur":1,"pid":1,"tid":0},{"name":"cv1","cat":"obs-span","ph":"X","ts":40,"dur":3,"pid":1,"tid":1},{"name":"cv1","cat":"obs-span","ph":"X","ts":40,"dur":9,"pid":1,"tid":1},{"name":"fc1","cat":"obs-span","ph":"X","ts":40,"dur":7,"pid":1,"tid":1}]}` + "\n"
	for _, c := range []struct {
		tr   *Tracer
		want string
	}{{tr, want}, {NewTracer(4), `{"traceEvents":[]}` + "\n"}} {
		var b strings.Builder
		if err := c.tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.want {
			t.Fatalf("trace bytes moved:\ngot  %s\nwant %s", b.String(), c.want)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("t", "s", L("a", "b"))
	sp.End() // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer reported spans")
	}
	Span{}.End() // zero span is inert too
}
