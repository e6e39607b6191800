package rapidnn

// Integration tests for the five command-line tools: each binary is built
// from source into a temp dir and driven the way a user would, asserting on
// its output. Skipped under -short.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
)

func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all five binaries")
	}
	dir := t.TempDir()

	// rapidnn-bench: hardware-only artifacts in quick mode, with per-artifact
	// stage tracing.
	benchBin := buildCmd(t, dir, "rapidnn-bench")
	benchStages := filepath.Join(dir, "bench-stages.json")
	out := runCmd(t, benchBin, "-quick", "-only", "t1,f5,f14,ablate,xvar", "-csv", dir,
		"-trace-out", benchStages)
	for _, want := range []string{"Table 1", "3841um2", "Figure 5", "Figure 14", "Ablations", "process variation"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench output missing %q", want)
		}
	}
	if b, err := os.ReadFile(benchStages); err != nil || !strings.Contains(string(b), `"ablate"`) {
		t.Errorf("bench stage trace missing artifact spans: %v", err)
	}

	// rapidnn-compose: train, compose, save a RAPIDNN2 artifact.
	composeBin := buildCmd(t, dir, "rapidnn-compose")
	modelPath := filepath.Join(dir, "mnist.rapidnn")
	out = runCmd(t, composeBin, "-dataset", "MNIST", "-scale", "0.1", "-epochs", "3",
		"-iters", "1", "-save", modelPath)
	if !strings.Contains(out, "reinterpreted error") || !strings.Contains(out, "saved composed model") {
		t.Errorf("compose output unexpected:\n%s", out)
	}
	if raw, err := os.ReadFile(modelPath); err != nil || !bytes.HasPrefix(raw, []byte("RAPIDNN2")) {
		t.Fatalf("RAPIDNN2 artifact missing: %v", err)
	}

	// rapidnn-infer: mmap-load the artifact, validate a few samples in
	// hardware, then bulk-score a feature CSV through the same artifact.
	inferBin := buildCmd(t, dir, "rapidnn-infer")
	out = runCmd(t, inferBin, "-model", modelPath, "-dataset", "MNIST", "-hw", "3")
	for _, want := range []string{"(mapped)", "software reinterpreted error", "hardware/software agreement", "NOR cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("infer output missing %q:\n%s", want, out)
		}
	}
	ds, err := dataset.ByName("MNIST", dataset.Small)
	if err != nil {
		t.Fatal(err)
	}
	in := ds.InSize()
	var csv strings.Builder
	csv.WriteString(strings.TrimSuffix(strings.Repeat("f,", in), ",") + "\n") // header line
	const scoreRows = 5
	for i := 0; i < scoreRows; i++ {
		for j := 0; j < in; j++ {
			if j > 0 {
				csv.WriteByte(',')
			}
			csv.WriteString(strconv.FormatFloat(float64(ds.TestX.At(i, j)), 'g', -1, 32))
		}
		csv.WriteByte('\n')
	}
	scoreCSV := filepath.Join(dir, "features.csv")
	predsPath := filepath.Join(dir, "preds.txt")
	if err := os.WriteFile(scoreCSV, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, inferBin, "-model", modelPath, "-score", scoreCSV, "-out", predsPath, "-header", "-batch", "2")
	if !strings.Contains(out, "scored 5 rows") {
		t.Errorf("bulk-scoring summary missing:\n%s", out)
	}
	predsRaw, err := os.ReadFile(predsPath)
	if err != nil {
		t.Fatal(err)
	}
	preds := strings.Fields(strings.TrimSpace(string(predsRaw)))
	if len(preds) != scoreRows {
		t.Fatalf("bulk scoring wrote %d predictions, want %d:\n%s", len(preds), scoreRows, predsRaw)
	}
	for i, p := range preds {
		if c, err := strconv.Atoi(p); err != nil || c < 0 || c >= ds.NumClasses {
			t.Fatalf("prediction %d is %q, want a class in [0,%d)", i, p, ds.NumClasses)
		}
	}

	// A retired RAPIDNN1 gob artifact is refused with a named-magic error.
	var gobRaw bytes.Buffer
	if err := gob.NewEncoder(&gobRaw).Encode(struct{ Magic string }{"RAPIDNN1"}); err != nil {
		t.Fatal(err)
	}
	gobPath := filepath.Join(dir, "old.rapidnn")
	if err := os.WriteFile(gobPath, gobRaw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	gobOut, err := exec.Command(inferBin, "-model", gobPath, "-dataset", "MNIST").CombinedOutput()
	if err == nil || !strings.Contains(string(gobOut), "not a RAPIDNN2 artifact (magic") {
		t.Errorf("infer on a gob artifact: err %v, output:\n%s", err, gobOut)
	}

	// rapidnn-sim: analytic + event simulation + trace export, plus the
	// observability exports (-metrics Prometheus snapshot, -trace-out stage
	// spans).
	simBin := buildCmd(t, dir, "rapidnn-sim")
	tracePath := filepath.Join(dir, "trace.json")
	simMetrics := filepath.Join(dir, "sim-metrics.prom")
	simStages := filepath.Join(dir, "sim-stages.json")
	out = runCmd(t, simBin, "-net", "MNIST", "-stream", "3", "-trace", tracePath,
		"-metrics", simMetrics, "-trace-out", simStages)
	for _, want := range []string{"RNA blocks", "energy breakdown", "tile placement", "steady interval"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q", want)
		}
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("trace missing: %v", err)
	}
	simProm := parsePromFile(t, simMetrics)
	if v, ok := simProm[`rapidnn_sim_throughput_inferences_per_second{workload="MNIST"}`]; !ok || v == "0" {
		t.Errorf("sim metrics missing nonzero throughput gauge; got %q (present %v)", v, ok)
	}
	if b, err := os.ReadFile(simStages); err != nil || !strings.Contains(string(b), `"simulate"`) {
		t.Errorf("sim stage trace missing simulate span: %v", err)
	}
	// Paper-scale workloads resolve by name too.
	out = runCmd(t, simBin, "-net", "VGGNet", "-chips", "8")
	if !strings.Contains(out, "GMACs/inference") {
		t.Errorf("sim VGGNet output unexpected")
	}

	// -mode runs the compilation pass: MNIST at one chip must report a
	// strict II improvement, the replication vector, the event-sim
	// confirmation and the capacity plan.
	out = runCmd(t, simBin, "-net", "MNIST", "-mode", "throughput", "-capacity-chips", "1,8")
	for _, want := range []string{
		"compilation pass (throughput objective)",
		"improvement: II",
		"replication vector",
		"event-sim check",
		"capacity plan: MNIST",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sim -mode output missing %q:\n%s", want, out)
		}
	}
	if _, err := exec.Command(simBin, "-net", "MNIST", "-mode", "speed").CombinedOutput(); err == nil {
		t.Error("sim accepted an unknown -mode")
	}

	// The multiplexed regime is reportable, not silent: a workload that
	// exceeds one chip must print why no static placement exists.
	out = runCmd(t, simBin, "-net", "CIFAR-100", "-chips", "1")
	if !strings.Contains(out, "no static tile placement") {
		t.Errorf("sim over-capacity run does not report the placement error:\n%s", out)
	}

	// Unknown dataset names fail with the shared registry's valid-name list.
	badOut, err := exec.Command(composeBin, "-dataset", "Nope").CombinedOutput()
	if err == nil {
		t.Error("compose accepted an unknown dataset")
	}
	if !strings.Contains(string(badOut), "valid:") || !strings.Contains(string(badOut), "MNIST") {
		t.Errorf("compose unknown-dataset error does not list valid names:\n%s", badOut)
	}

	// rapidnn-serve: serve the composed artifact over HTTP with both paths,
	// predict through each, scrape /metrics, then shut down gracefully on
	// SIGTERM (which snapshots metrics and trace to files).
	serveBin := buildCmd(t, dir, "rapidnn-serve")
	addrFile := filepath.Join(dir, "serve.addr")
	serveMetrics := filepath.Join(dir, "serve-metrics.prom")
	serveTrace := filepath.Join(dir, "serve-trace.json")
	serveCmd := exec.Command(serveBin, "-model", modelPath, "-hw",
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-metrics", serveMetrics, "-trace-out", serveTrace)
	var serveOut bytes.Buffer
	serveCmd.Stdout, serveCmd.Stderr = &serveOut, &serveOut
	if err := serveCmd.Start(); err != nil {
		t.Fatalf("starting rapidnn-serve: %v", err)
	}
	defer serveCmd.Process.Kill()
	var addr string
	for i := 0; i < 100; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never wrote its address; output:\n%s", serveOut.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}

	// Discover the input width from /v1/models and predict one row.
	resp, err = http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	var models struct {
		Models []struct {
			Name   string `json:"name"`
			InSize int    `json:"in_size"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatalf("decoding models: %v", err)
	}
	resp.Body.Close()
	if len(models.Models) != 1 || models.Models[0].InSize <= 0 {
		t.Fatalf("models payload unexpected: %+v", models)
	}
	row := make([]float32, models.Models[0].InSize)
	for i := range row {
		row[i] = 0.5
	}
	body, _ := json.Marshal(map[string]any{"inputs": [][]float32{row}})
	resp, err = http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	var pred struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatalf("decoding prediction: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pred.Predictions) != 1 {
		t.Fatalf("predict returned %d with %+v", resp.StatusCode, pred)
	}

	// Hardware-path predict: real substrate work that must surface in the
	// lane's /metrics counters.
	body, _ = json.Marshal(map[string]any{"path": "hardware", "inputs": [][]float32{row}})
	resp, err = http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("hardware predict: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatalf("decoding hardware prediction: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pred.Predictions) != 1 {
		t.Fatalf("hardware predict returned %d with %+v", resp.StatusCode, pred)
	}

	// GET /metrics: well-formed Prometheus text exposition with nonzero
	// substrate counters on the hardware lane.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	samples := parsePromText(t, string(promBody))
	hwCycles := samples[`rapidnn_serve_substrate_cycles_total{lane="`+models.Models[0].Name+`/hardware"}`]
	if hwCycles == "" || hwCycles == "0" {
		t.Errorf("hardware lane substrate cycles = %q, want nonzero; metrics:\n%s", hwCycles, promBody)
	}
	swDone := samples[`rapidnn_serve_requests_total{lane="`+models.Models[0].Name+`/software",outcome="completed"}`]
	if swDone != "1" {
		t.Errorf("software lane completed = %q, want 1", swDone)
	}

	// Graceful shutdown: SIGTERM drains and exits zero.
	if err := serveCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling server: %v", err)
	}
	exit := make(chan error, 1)
	go func() { exit <- serveCmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("server exited with %v; output:\n%s", err, serveOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !strings.Contains(serveOut.String(), "drained cleanly") {
		t.Errorf("server output missing drain confirmation:\n%s", serveOut.String())
	}
	// The drain wrote the final metrics snapshot and the Chrome trace.
	finalProm := parsePromFile(t, serveMetrics)
	if v := finalProm[`rapidnn_serve_requests_total{lane="`+models.Models[0].Name+`/hardware",outcome="completed"}`]; v != "1" {
		t.Errorf("final metrics snapshot hardware completed = %q, want 1", v)
	}
	traceBytes, err := os.ReadFile(serveTrace)
	if err != nil || !strings.Contains(string(traceBytes), `"batch"`) {
		t.Errorf("serve trace missing batch spans: %v", err)
	}
}

// promSampleLine matches one Prometheus exposition sample line.
var promSampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (?:[-+]?[0-9].*|[-+]Inf|NaN)$`)

// parsePromText validates Prometheus text exposition line by line and
// returns the samples keyed by "name{labels}".
func parsePromText(t *testing.T, text string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Fatalf("malformed Prometheus exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		samples[line[:i]] = line[i+1:]
	}
	return samples
}

func parsePromFile(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading metrics file: %v", err)
	}
	return parsePromText(t, string(b))
}
