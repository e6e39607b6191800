// Command rapidnn-serve exposes composed models over HTTP: it loads
// .rapidnn artifacts saved by rapidnn-compose, instantiates the
// reinterpreted software path (and, with -hw, the functional-hardware
// validation path), and serves predictions through a dynamic micro-batcher
// with bounded-queue backpressure, graceful shutdown and a metrics surface.
//
// Usage:
//
//	rapidnn-serve -model mnist.rapidnn [-model name=path ...] [-addr :8080]
//	rapidnn-serve -demo MNIST          # synthetic model, no artifact needed
//	rapidnn-serve -model m.rapidnn -canary-interval 30s   # periodic self-tests
//
// With -canary-interval set, every model replays its embedded golden canary
// vectors on that cadence; a diverging model flips /healthz and /v1/models to
// degraded and its predict traffic is shed with 503s until POST /v1/scrub
// reloads it.
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/predict -d '{"inputs": [[0.1, 0.5, ...]]}'
//	curl -s localhost:8080/stats
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/composer"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// modelFlags collects repeated -model values: either "path" (name from the
// file's base name) or "name=path".
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string { return fmt.Sprintf("%d models", len(*m)) }

func (m *modelFlags) Set(v string) error {
	name, path := "", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rapidnn-serve: %v\n", err)
	os.Exit(1)
}

// registerWith announces this replica to a rapidnn-router so it joins the
// routing ring without appearing in the router's -replica flags. A wildcard
// listen address is rewritten to loopback: the router must be handed a URL
// it can actually dial.
func registerWith(router string, bound net.Addr) error {
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return err
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	body, err := json.Marshal(map[string]string{
		"url": fmt.Sprintf("http://%s", net.JoinHostPort(host, port)),
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(router, "/")+"/fleet/register",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("router answered HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// writeFileWith streams an exporter (WritePrometheus, WriteChromeTrace) into
// a freshly created file.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var models modelFlags
	flag.Var(&models, "model", "composed-model artifact to serve: path or name=path (repeatable)")
	demo := flag.String("demo", "", "serve a synthetic untrained model shaped like this benchmark dataset instead of an artifact")
	addr := flag.String("addr", ":8080", "listen address (use 127.0.0.1:0 for a random port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	hw := flag.Bool("hw", false, "also lower models to the functional-hardware path (validation-grade, slow)")
	workers := flag.Int("workers", 0, "hardware-path worker goroutines per batch (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 16, "micro-batcher: take at most this many queued requests per batch")
	queue := flag.Int("queue", 256, "admission queue depth; a full queue answers 503 + Retry-After")
	timeout := flag.Duration("timeout", 30*time.Second, "server-side per-request deadline (0 = none)")
	canaryInterval := flag.Duration("canary-interval", 0, "periodic canary self-test interval; degraded models are shed with 503s until scrubbed (0 = disabled)")
	metricsOut := flag.String("metrics", "", "write a final Prometheus metrics snapshot to this file on drain (GET /metrics serves them live regardless)")
	traceOut := flag.String("trace-out", "", "record per-batch serving spans and write a Chrome trace (chrome://tracing, Perfetto) to this file on drain")
	replicaID := flag.String("replica-id", "", "stamp every metric series with replica=\"...\" so a fleet scrape can tell replicas apart")
	tenantRate := flag.Float64("tenant-rps", 0, "per-tenant admission quota in requests/second; over-quota tenants are shed with 429 (0 = disabled)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant quota burst capacity (0 = 2x rate)")
	register := flag.String("register", "", "rapidnn-router base URL to register this replica with once listening")
	tenantMax := flag.Int("tenant-max", 0, "max tracked per-tenant quota buckets before LRU eviction (0 = default 4096)")
	chaosSpec := flag.String("chaos", "", "failpoint spec, e.g. 'serve.predict=latency:50ms@0.1;serve.predict=http:500@0.05' (enables POST /chaos)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the deterministic failpoint engine")
	flag.Parse()

	var eng *chaos.Engine
	if *chaosSpec != "" {
		rules, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fail(fmt.Errorf("-chaos: %w", err))
		}
		eng = chaos.New(*chaosSeed)
		if err := eng.Set(rules); err != nil {
			fail(fmt.Errorf("-chaos: %w", err))
		}
		fmt.Printf("chaos engine armed (seed %d): %s\n", *chaosSeed, *chaosSpec)
	}

	reg := serve.NewRegistry()
	for _, mf := range models {
		m, err := serve.LoadModelFile(mf.name, mf.path, *hw, *workers)
		if err != nil {
			fail(err)
		}
		if err := reg.Add(m); err != nil {
			fail(err)
		}
		fmt.Printf("loaded %s from %s: %s (%d features -> %d classes)\n",
			m.Name, mf.path, m.Composed.Net.Topology(), m.InSize(), m.Classes())
	}
	if *demo != "" {
		// The demo model's answers are arbitrary (untrained weights, evenly
		// spaced synthetic codebooks) but deterministic — enough to exercise
		// the full serving path without a compose run.
		ds, err := dataset.ByName(*demo, dataset.Small)
		if err != nil {
			fail(err)
		}
		net := model.FCNet("demo-"+ds.Name, ds.InSize(), ds.NumClasses, 0.05, 1)
		c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 16, 16, 32)}
		m, err := serve.NewModel("demo", c, *hw, *workers)
		if err != nil {
			fail(err)
		}
		if err := reg.Add(m); err != nil {
			fail(err)
		}
		fmt.Printf("serving synthetic demo model: %s (%d features -> %d classes)\n",
			net.Topology(), m.InSize(), m.Classes())
	}
	if reg.Len() == 0 {
		fmt.Fprintln(os.Stderr, "rapidnn-serve: nothing to serve; pass -model path/to/model.rapidnn or -demo MNIST")
		os.Exit(1)
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(1 << 16)
	}
	srv := serve.NewServer(reg, serve.Config{
		Batcher: serve.BatcherConfig{
			MaxBatch:   *maxBatch,
			QueueDepth: *queue,
		},
		RequestTimeout: *timeout,
		CanaryInterval: *canaryInterval,
		Trace:          tracer,
		Replica:        *replicaID,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		TenantMax:      *tenantMax,
		Chaos:          eng,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("listening on %s (max-batch %d, queue %d)\n", ln.Addr(), *maxBatch, *queue)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fail(err)
		}
	}
	if *register != "" {
		if err := registerWith(*register, ln.Addr()); err != nil {
			fail(fmt.Errorf("registering with %s: %w", *register, err))
		}
		fmt.Printf("registered with router %s\n", *register)
	}

	httpSrv := &http.Server{Handler: srv}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("received %v, draining\n", s)
		// Refuse new work and complete every admitted request, then let the
		// HTTP layer finish writing the in-flight responses.
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fail(err)
		}
		// Every lane has drained: the registry and tracer are quiescent, so
		// the snapshots are complete and consistent.
		if *metricsOut != "" {
			if err := writeFileWith(*metricsOut, srv.Obs().WritePrometheus); err != nil {
				fail(err)
			}
			fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
		}
		if tracer != nil {
			if err := writeFileWith(*traceOut, tracer.WriteChromeTrace); err != nil {
				fail(err)
			}
			fmt.Printf("wrote trace (%d spans, %d dropped) to %s\n", tracer.Len(), tracer.Dropped(), *traceOut)
		}
		fmt.Println("drained cleanly")
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}
}
