// Command perfbench is the repository's end-to-end benchmark. It drives the
// serving path (fleet router → serve replicas → micro-batcher → executor)
// and the functional hardware simulator through their public entry points,
// checks every answer against references computed by calling the executors
// directly, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet-sw --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 runs
// the workload once untraced and once with spans recorded around every layer
// boundary and prints the per-layer breakdown. README.md defines every
// metric and which layer should move which end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/internal/serve"
)

// workload is one traffic shape. Fleet workloads (path set) are open loops
// through a router and two replicas; the others are closed loops on the
// hardware executor.
type workload struct {
	name   string
	recipe recipe
	path   serve.Path // serving path; "" for the closed-loop executor workload
	rate   float64    // offered rows/s of the open loop
	faults bool       // inject the bulk fault scenario
}

var workloads = []workload{
	{name: "fleet-sw", recipe: mnistFC, path: serve.PathSoftware, rate: 150},
	{name: "bulk-conv", recipe: cifarConv},
	{name: "bulk-faults", recipe: mnistFC, faults: true},
}

// setups is how many fresh set-ups one run times; setup_s is their median.
// A single cold start of 10–20 ms does not repeat within a tenth on this
// host.
const setups = 7

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_row", "ms"},
	{"rows_per_s", "rows/s"},
}

// rnaLayers is the union of the lowered layers of both models; a layer the
// workload's model lacks reports 0.
var rnaLayers = []string{"cv1", "pl1", "cv2", "cv3", "fc1", "fc2", "out"}

// perLayer lists the metrics of a traced run (--trace 1). A metric whose
// layer is not on the workload's path reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"loadgen.late_ms", "ms"},
		{"loadgen.tail_ms", "ms"},
		{"loadgen.request_ms", "ms"},
		{"loadgen.client_ms", "ms"},
		{"fleet.router_ms", "ms"},
		{"fleet.hop_ms", "ms"},
		{"fleet.attempts_per_req", "1/req"},
		{"fleet.busiest_replica_share", "ratio"},
		{"serve.http_ms", "ms"},
		{"serve.queue_ms", "ms"},
		{"serve.exec_ms", "ms"},
		{"serve.rows_per_batch", "rows"},
		{"composer.open_ms", "ms"},
		{"composer.predict_ms_per_row", "ms/row"},
		{"rna.lower_ms", "ms"},
		{"rna.warmup_ms", "ms"},
		{"rna.ms_per_row", "ms/row"},
		{"rna.mismatch_pct", "%"},
	}
	for _, l := range rnaLayers {
		defs = append(defs, metricDef{"rna.layer." + l, "ms/row"})
	}
	return append(defs,
		metricDef{"rna.cam_hit_ratio", "ratio"},
		metricDef{"rna.cycles_per_row", "cycles/row"},
		metricDef{"rna.nors_per_row", "NORs/row"},
		metricDef{"rna.reads_per_row", "reads/row"},
		metricDef{"rna.energy_nj_per_row", "nJ/row"},
		metricDef{"fault.corrected_per_row", "1/row"},
		metricDef{"fault.tmr_votes_per_row", "1/row"},
		metricDef{"fault.tmr_disagreements_per_row", "1/row"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.alloc_kb_per_row", "KB/row"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// correct is false when a check other than a per-operation answer
	// failed (simulated activity, fault map, the traced ladder).
	correct bool
	metrics map[string]float64
	record  *record
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "prepare" {
		if err := prepareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench prepare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: fleet-sw, bulk-conv or bulk-faults")
	seed := flag.Int64("seed", 1, "workload seed: picks the request rows, their order, the tenants and the fault map")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fleet-sw|bulk-conv|bulk-faults --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.correct && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		// A failed request in the tail is +Inf, which JSON cannot carry.
		v := min(out.metrics[d.name], math.MaxFloat64)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rec, err := json.Marshal(out.record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("record %s\n%s\n", rec, line)
}

// run prepares the workload's inputs in a child process, then measures.
func run(o options) (*outcome, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "prepare", "-workload", o.workload.name,
		"-seed", strconv.FormatInt(o.seed, 10), "-dir", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("prepare step: %w", err)
	}
	in, err := loadInputs(filepath.Join(dir, inputsName))
	if err != nil {
		return nil, err
	}
	env := &runEnv{o: o, in: in, artifact: filepath.Join(dir, artifactName)}
	env.rec = newRecord(o, in)
	var out *outcome
	if o.workload.path != "" {
		out, err = runFleet(env)
	} else {
		out, err = runBulk(env)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		out.metrics["rna.mismatch_pct"] = mismatchPct(in)
	}
	out.record = env.rec
	return out, nil
}

// runEnv is the state shared by one run's phases.
type runEnv struct {
	o        options
	in       *inputs
	artifact string
	rec      *record
}

// mismatchPct is the share of pool rows whose hardware answer differs from
// the software model's: the functional simulator's error against its
// reference, fixed per seed.
func mismatchPct(in *inputs) float64 {
	diff := 0
	for i := range in.Pool {
		if in.Hardware[i] != in.Software[i] {
			diff++
		}
	}
	return 100 * float64(diff) / float64(len(in.Pool))
}
