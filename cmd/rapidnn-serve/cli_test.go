package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/composer"
	"repro/internal/nn"
)

// buildBinary compiles the command under test into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "rapidnn-serve")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func saveArtifact(t *testing.T, path string, c *composer.Composed) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFlat(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// End-to-end through the real binary: a corrupted artifact on disk (stale
// canaries) boots, the -canary-interval loop flips /healthz to degraded and
// sheds its predict traffic with 503s, while the healthy sibling keeps
// answering 200.
func TestServeCLIShedsCorruptArtifact(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	rng := rand.New(rand.NewSource(5))
	net := nn.NewNetwork("cli").
		Add(nn.NewDense("fc1", 12, 10, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
	c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	c.SynthesizeCanaries(8, 1)
	good := filepath.Join(dir, "healthy.rapidnn")
	saveArtifact(t, good, c)

	// Scramble the weights but keep the now-stale canaries: the artifact
	// still loads, but its embedded golden answers no longer match.
	w := net.Layers[0].(*nn.Dense).W.Value.Data()
	crng := rand.New(rand.NewSource(99))
	for i := range w {
		w[i] = crng.Float32()*10 - 5
	}
	if failed, err := c.CheckCanaries(); err != nil || failed == 0 {
		t.Fatalf("corruption did not invalidate the canaries: failed=%d err=%v", failed, err)
	}
	bad := filepath.Join(dir, "sick.rapidnn")
	saveArtifact(t, bad, c)

	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-model", "healthy="+good, "-model", "sick="+bad,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-canary-interval", "25ms")
	var logBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	defer stop()
	// fail stops the server first so reading its log buffer is safe.
	fail := func(format string, args ...any) {
		t.Helper()
		stop()
		t.Fatalf(format+"\nserver log:\n%s", append(args, logBuf.String())...)
	}

	deadline := time.Now().Add(15 * time.Second)
	var addr string
	for addr == "" {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		if time.Now().After(deadline) {
			fail("server never wrote its address file")
		}
		time.Sleep(20 * time.Millisecond)
	}
	base := "http://" + addr

	// The canary loop must degrade the corrupted model on its own.
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var body struct {
				Status   string   `json:"status"`
				Degraded []string `json:"degraded_models"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable && body.Status == "degraded" &&
				len(body.Degraded) == 1 && body.Degraded[0] == "sick" {
				break
			}
		}
		if time.Now().After(deadline) {
			fail("healthz never reported the corrupted model degraded")
		}
		time.Sleep(20 * time.Millisecond)
	}

	predict := func(model string) int {
		body, _ := json.Marshal(map[string]any{
			"model": model, "inputs": [][]float32{make([]float32, 12)},
		})
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			fail("predict %s: %v", model, err)
		}
		defer resp.Body.Close()
		var pr struct {
			Predictions []int `json:"predictions"`
		}
		json.NewDecoder(resp.Body).Decode(&pr)
		if resp.StatusCode == http.StatusOK && len(pr.Predictions) != 1 {
			fail("predict %s: 200 with %d predictions", model, len(pr.Predictions))
		}
		return resp.StatusCode
	}
	if code := predict("healthy"); code != http.StatusOK {
		fail("healthy model answered %d, want 200", code)
	}
	if code := predict("sick"); code != http.StatusServiceUnavailable {
		fail("degraded model answered %d, want 503", code)
	}
}

// A retired RAPIDNN1 gob artifact stops the server at boot with a
// named-magic error instead of serving it.
func TestServeCLIRejectsGobArtifact(t *testing.T) {
	bin := buildBinary(t)
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(struct{ Magic string }{"RAPIDNN1"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.rapidnn")
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-model", path, "-addr", "127.0.0.1:0").CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("not a RAPIDNN2 artifact (magic")) {
		t.Fatalf("serving a gob artifact: err %v, output:\n%s", err, out)
	}
}
