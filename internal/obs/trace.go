package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Tracer records stage spans — named intervals on named tracks, with
// optional labels — into a fixed-capacity buffer. Starting and ending a
// span is a time read plus one atomic slot reservation; when the buffer is
// full further spans are counted as dropped instead of growing memory, so a
// tracer can stay attached to a long-running server. A nil *Tracer is a
// valid no-op: Start returns an inert Span, so instrumented code needs no
// guards.
//
// The buffer is written lock-free; export with WriteChromeTrace only after
// the traced work has quiesced (workers joined, batcher drained).
type Tracer struct {
	epoch   time.Time
	events  []spanEvent
	n       atomic.Int64
	dropped atomic.Uint64
}

type spanEvent struct {
	track, name string
	labels      []Label
	startUS     int64
	durUS       int64
}

// NewTracer returns a tracer holding at most capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{epoch: time.Now(), events: make([]spanEvent, capacity)}
}

// Span is one in-flight interval; End records it. The zero Span (from a nil
// tracer) is inert.
type Span struct {
	t           *Tracer
	track, name string
	labels      []Label
	start       time.Time
}

// Start opens a span on the given track. Labels are attached to the
// recorded event; passing none performs no allocation, so a disabled
// (nil-tracer) call site costs only the nil check.
func (t *Tracer) Start(track, name string, labels ...Label) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, track: track, name: name, labels: labels, start: time.Now()}
}

// End records the span. Safe on the zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Now()
	i := s.t.n.Add(1) - 1
	if i >= int64(len(s.t.events)) {
		s.t.dropped.Add(1)
		return
	}
	s.t.events[i] = spanEvent{
		track:   s.track,
		name:    s.name,
		labels:  s.labels,
		startUS: s.start.Sub(s.t.epoch).Microseconds(),
		durUS:   end.Sub(s.start).Microseconds(),
	}
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := int(t.n.Load())
	if n > len(t.events) {
		n = len(t.events)
	}
	return n
}

// Dropped returns how many spans were discarded because the buffer was full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// WriteChromeTrace exports the recorded spans in the Chrome trace-event
// format through EncodeChromeTrace: one track (thread) per distinct track
// name, one slice per span, labels as slice args. Tracks are numbered in
// sorted-name order, so the file is deterministic for a given set of
// recorded spans.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	n := t.Len()
	tidOf := make(map[string]int)
	var tracks []string
	for i := 0; i < n; i++ {
		if _, ok := tidOf[t.events[i].track]; !ok {
			tidOf[t.events[i].track] = 0
			tracks = append(tracks, t.events[i].track)
		}
	}
	sort.Strings(tracks)
	for i, name := range tracks {
		tidOf[name] = i
	}
	events := make([]ChromeEvent, n)
	for i := range events {
		e := t.events[i]
		events[i] = ChromeEvent{Name: e.name, Cat: "obs-span", Ts: e.startUS, Dur: e.durUS, Tid: tidOf[e.track]}
		if len(e.labels) > 0 {
			events[i].Args = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				events[i].Args[l.Key] = l.Value
			}
		}
	}
	return EncodeChromeTrace(w, tracks, events)
}

// ChromeEvent is one event of a Chrome trace-event file. Callers of
// EncodeChromeTrace fill the slice fields; the encoder sets Ph and Pid.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// EncodeChromeTrace writes events as a Chrome trace-event file (load it at
// chrome://tracing or https://ui.perfetto.dev): every event becomes a
// complete slice of process 1, and tracks[i] names the track (thread) of tid
// i in a leading metadata event. The slices are sorted stably by
// (timestamp, track, name) — in place — so the file is byte-identical for a
// given event list however the events were produced.
func EncodeChromeTrace(w io.Writer, tracks []string, events []ChromeEvent) error {
	for i := range events {
		events[i].Ph, events[i].Pid = "X", 1
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Name < events[j].Name
	})
	all := make([]ChromeEvent, 0, len(tracks)+len(events))
	for i, name := range tracks {
		all = append(all, ChromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i, Args: map[string]string{"name": name}})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}{append(all, events...)})
}
