package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// The traced run records its spans from outside the program: around the
// calls into each layer, on one obs.Tracer, every span of one request
// labelled with the request's id. The id travels on idHeader from the load
// generator to the router, on the request context through the router to its
// backend client, and on idHeader again to the replica.
const idHeader = "X-Perfbench-Request"

type requestIDKey struct{}

// Span tracks of the traced run.
const (
	trackLoadgen = "loadgen"       // one "request" span per request, one "phase" span
	trackRouter  = "fleet/router"  // Router.ServeHTTP
	trackAttempt = "fleet/attempt" // one backend attempt, headers to body close
	trackReplica = "replica"       // a replica's Server.ServeHTTP
	servePrefix  = "serve/"        // serve.Config.Trace batch spans: serve/<model>/<path>
	trackRNA     = "rna"           // HardwareNetwork.Trace
	spanBatch    = "batch"         // serve's batch span name
	spanInferB   = "infer_batch"   // rna's batch span name
	spanPhase    = "phase"         // the traced phase
	spanRequest  = "request"       // the client span
	spanHandler  = "handler"       // router and replica handler spans
	spanAttempt  = "attempt"       // backend attempt span
	labelID      = "id"            // request id label
	labelReplica = "replica"       // attempt span: backend host
	labelRows    = "rows"          // batch span: rows in the batch
	traceCap     = 1 << 18         // spans one tracer holds
	ladderTol    = 0.01            // ms of span-rounding slack in the ladder
)

// tracedHandler wraps a handler with a span per traced request. The request
// id also rides on the context, where a router's backend transport finds it.
func tracedHandler(tr *obs.Tracer, track string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(idHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		sp := tr.Start(track, spanHandler, obs.L(labelID, id))
		next.ServeHTTP(w, r)
		sp.End()
	})
}

// timingTransport is the router's backend RoundTripper in the traced run:
// one span per attempt, from the request until the router closes the
// response body, and the request id stamped for the replica.
type timingTransport struct {
	base http.RoundTripper
	tr   *obs.Tracer
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(requestIDKey{}).(string)
	if id == "" {
		return t.base.RoundTrip(req)
	}
	sp := t.tr.Start(trackAttempt, spanAttempt, obs.L(labelID, id), obs.L(labelReplica, req.URL.Host))
	out := req.Clone(req.Context())
	out.Header.Set(idHeader, id)
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.End()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: sp.End}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// span is one recorded interval, read back from the Chrome trace export.
type span struct {
	track, name string
	start, dur  int64 // µs
	args        map[string]string
}

func (s span) end() int64 { return s.start + s.dur }

// readSpans exports the tracer (its only export is WriteChromeTrace) and
// parses the result back.
func readSpans(tr *obs.Tracer) ([]span, error) {
	if d := tr.Dropped(); d > 0 {
		return nil, fmt.Errorf("tracer dropped %d spans", d)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	tracks := make(map[int]string)
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			tracks[e.Tid] = e.Args["name"]
		}
	}
	var out []span
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			out = append(out, span{track: tracks[e.Tid], name: e.Name, start: e.Ts, dur: e.Dur, args: e.Args})
		}
	}
	return out, nil
}

// ladder is the traced breakdown of the mean request, rung by rung. Each
// rung is a self time: its span minus what its child spans cover. The six
// rungs add up to requestMS.
type ladder struct {
	requests   int
	requestMS  float64 // mean client span
	clientMS   float64 // client span − router handler span
	routerMS   float64 // router handler span − backend attempts
	hopMS      float64 // backend attempts − replica handler spans
	httpMS     float64 // replica handler spans − admission→delivery
	queueMS    float64 // admission→delivery − batch span
	execMS     float64 // the batch span each request rode in
	attempts   float64 // backend attempts per request
	busiest    float64 // share of attempts at the busiest replica
	batchRows  float64 // mean rows per batch
	negativeAt string  // first rung with a negative self time, if any
}

// buildLadder assembles the ladder from the spans of the traced phase and
// the replicas' admission→delivery latency (the sum, in seconds, and the
// count of rapidnn_serve_latency_seconds over the phase).
func buildLadder(spans []span, admitSumS float64, admitCount float64) (ladder, error) {
	var lo, hi int64 = -1, -1
	for _, s := range spans {
		if s.track == trackLoadgen && s.name == spanPhase {
			lo, hi = s.start, s.end()
		}
	}
	if lo < 0 {
		return ladder{}, fmt.Errorf("trace has no phase span")
	}
	type req struct {
		client, router      *span
		attempts, replicaSp []span
	}
	byID := make(map[string]*req)
	get := func(id string) *req {
		r := byID[id]
		if r == nil {
			r = &req{}
			byID[id] = r
		}
		return r
	}
	perReplica := make(map[string]int)
	var batchRowsDur, batchRows, batches float64
	for i := range spans {
		s := &spans[i]
		switch {
		case s.track == trackLoadgen && s.name == spanRequest:
			get(s.args[labelID]).client = s
		case s.track == trackRouter:
			get(s.args[labelID]).router = s
		case s.track == trackAttempt:
			r := get(s.args[labelID])
			r.attempts = append(r.attempts, *s)
			perReplica[s.args[labelReplica]]++
		case s.track == trackReplica:
			r := get(s.args[labelID])
			r.replicaSp = append(r.replicaSp, *s)
		case strings.HasPrefix(s.track, servePrefix) && s.name == spanBatch && s.start >= lo && s.end() <= hi:
			rows, err := strconv.Atoi(s.args[labelRows])
			if err != nil {
				return ladder{}, fmt.Errorf("batch span rows label %q: %w", s.args[labelRows], err)
			}
			batchRowsDur += float64(rows) * float64(s.dur)
			batchRows += float64(rows)
			batches++
		}
	}
	var client, router, routerSelf, attempt, replica float64
	n := 0
	for id, r := range byID {
		if r.client == nil || r.router == nil || len(r.attempts) == 0 || len(r.replicaSp) == 0 {
			return ladder{}, fmt.Errorf("request %s is missing a span (client %t, router %t, attempts %d, replica %d)",
				id, r.client != nil, r.router != nil, len(r.attempts), len(r.replicaSp))
		}
		n++
		client += float64(r.client.dur)
		router += float64(r.router.dur)
		routerSelf += float64(r.router.dur - covered(r.attempts))
		for _, a := range r.attempts {
			attempt += float64(a.dur)
		}
		for _, s := range r.replicaSp {
			replica += float64(s.dur)
		}
	}
	if n == 0 || batches == 0 {
		return ladder{}, fmt.Errorf("trace holds %d requests and %d batches", n, int(batches))
	}
	if int(admitCount) != n || int(batchRows) != n {
		return ladder{}, fmt.Errorf("%d traced requests, but the replicas delivered %v rows in %v batch rows",
			n, admitCount, batchRows)
	}
	per := func(us float64) float64 { return us / 1000 / float64(n) }
	admitMS := admitSumS * 1000 / float64(n)
	l := ladder{
		requests:  n,
		requestMS: per(client),
		clientMS:  per(client - router),
		routerMS:  per(routerSelf),
		hopMS:     per(attempt - replica),
		httpMS:    per(replica) - admitMS,
		queueMS:   admitMS - per(batchRowsDur),
		execMS:    per(batchRowsDur),
		batchRows: batchRows / batches,
	}
	total := 0
	busiest := 0
	for _, c := range perReplica {
		total += c
		busiest = max(busiest, c)
	}
	l.attempts = float64(total) / float64(n)
	l.busiest = float64(busiest) / float64(total)
	for _, rung := range []struct {
		name string
		v    float64
	}{{"client", l.clientMS}, {"router", l.routerMS}, {"hop", l.hopMS},
		{"http", l.httpMS}, {"queue", l.queueMS}, {"exec", l.execMS}} {
		if rung.v < -ladderTol {
			l.negativeAt = rung.name
			break
		}
	}
	return l, nil
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	var total, curLo, curHi int64
	for i, s := range ss {
		if i == 0 || s.start > curHi {
			total += curHi - curLo
			curLo, curHi = s.start, s.end()
			continue
		}
		curHi = max(curHi, s.end())
	}
	return total + curHi - curLo
}

func (l ladder) metrics(m map[string]float64) {
	m["loadgen.request_ms"] = l.requestMS
	m["loadgen.client_ms"] = l.clientMS
	m["fleet.router_ms"] = l.routerMS
	m["fleet.hop_ms"] = l.hopMS
	m["fleet.attempts_per_req"] = l.attempts
	m["fleet.busiest_replica_share"] = l.busiest
	m["serve.http_ms"] = l.httpMS
	m["serve.queue_ms"] = l.queueMS
	m["serve.exec_ms"] = l.execMS
	m["serve.rows_per_batch"] = l.batchRows
}

func (l ladder) record() map[string]float64 {
	return map[string]float64{
		"requests": float64(l.requests), "request_ms": l.requestMS,
		"client_ms": l.clientMS, "router_ms": l.routerMS, "hop_ms": l.hopMS,
		"http_ms": l.httpMS, "queue_ms": l.queueMS, "exec_ms": l.execMS,
		"rungs_sum_ms": l.clientMS + l.routerMS + l.hopMS + l.httpMS + l.queueMS + l.execMS,
	}
}

// layerMS sums the per-layer spans HardwareNetwork.Trace recorded and
// returns each layer's milliseconds per row.
func layerMS(spans []span, rows int) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		if s.track == trackRNA && s.name != spanInferB {
			out[s.name] += float64(s.dur) / 1000 / float64(rows)
		}
	}
	return out
}

// sumMetric adds up every sample of one metric in a Prometheus text
// exposition, across label sets.
func sumMetric(text, name string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}
