package rollout

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/composer"
	"repro/internal/nn"
)

// buildComposed makes a small valid composed model with embedded canaries.
func buildComposed(t *testing.T, seed int64) *composer.Composed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork("regtest").
		Add(nn.NewDense("fc1", 12, 10, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
	c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	c.SynthesizeCanaries(8, 1)
	return c
}

// artifactBytes serializes a model as a RAPIDNN2 artifact.
func artifactBytes(t *testing.T, c *composer.Composed) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRegistryPushResolveVersions(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1 := artifactBytes(t, buildComposed(t, 1))
	v2 := artifactBytes(t, buildComposed(t, 2))

	p1, err := reg.Push("mnist", "v1", bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("pushing valid artifact v1: %v", err)
	}
	if _, err := reg.Push("mnist", "v2", bytes.NewReader(v2)); err != nil {
		t.Fatalf("pushing valid artifact v2: %v", err)
	}

	got, err := reg.Resolve("mnist", "v1")
	if err != nil || got != p1 {
		t.Fatalf("Resolve = %q, %v; want %q", got, err, p1)
	}
	if _, err := reg.Resolve("mnist", "v9"); err == nil {
		t.Fatal("Resolve of absent version succeeded")
	}

	vs, err := reg.Versions("mnist")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0] != "v1" || vs[1] != "v2" {
		t.Fatalf("Versions = %v, want [v1 v2]", vs)
	}
	models, err := reg.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0] != "mnist" {
		t.Fatalf("Models = %v, want [mnist]", models)
	}
	if vs, err := reg.Versions("absent"); err != nil || len(vs) != 0 {
		t.Fatalf("Versions of unknown model = %v, %v; want empty, nil", vs, err)
	}
}

func TestRegistryVersionsAreImmutable(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := artifactBytes(t, buildComposed(t, 3))
	if _, err := reg.Push("m", "v1", bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Push("m", "v1", bytes.NewReader(raw)); err == nil {
		t.Fatal("re-pushing an existing version succeeded; versions must be immutable")
	}
}

func TestRegistryRejectsCorruptPush(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := artifactBytes(t, buildComposed(t, 4))
	raw[len(raw)/2] ^= 0xFF // flip a byte mid-artifact: CRC must catch it
	if _, err := reg.Push("m", "bad", bytes.NewReader(raw)); err == nil {
		t.Fatal("push of corrupt artifact was accepted")
	}
	if vs, _ := reg.Versions("m"); len(vs) != 0 {
		t.Fatalf("corrupt push left versions behind: %v", vs)
	}
	// No temp droppings either.
	ents, _ := os.ReadDir(filepath.Join(reg.Dir(), "m"))
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".push-") {
			t.Fatalf("corrupt push left temp file %s", e.Name())
		}
	}
}

func TestRegistryRejectsStaleCanaries(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := buildComposed(t, 5)
	// Make the artifact internally consistent but wrong: the embedded golden
	// predictions no longer match the model's own answers — exactly what a
	// mis-built or stale artifact looks like.
	for i := range c.Canaries {
		c.Canaries[i].Pred = (c.Canaries[i].Pred + 1) % c.Net.OutSize()
	}
	raw := artifactBytes(t, c)
	if _, err := reg.Push("m", "stale", bytes.NewReader(raw)); err == nil {
		t.Fatal("push of artifact with diverging canaries was accepted")
	}
}

func TestRegistryRejectsTraversalNames(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := artifactBytes(t, buildComposed(t, 6))
	for _, bad := range []string{"", "..", "a/b", `a\b`, "."} {
		if _, err := reg.Push(bad, "v1", bytes.NewReader(raw)); err == nil {
			t.Fatalf("Push accepted model name %q", bad)
		}
		if _, err := reg.Push("m", bad, bytes.NewReader(raw)); err == nil {
			t.Fatalf("Push accepted version name %q", bad)
		}
	}
}

func TestRegistryManifestCurrent(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cur, err := reg.Current("m"); err != nil || cur != "" {
		t.Fatalf("Current before any promotion = %q, %v; want empty", cur, err)
	}
	raw := artifactBytes(t, buildComposed(t, 7))
	if _, err := reg.Push("m", "v1", bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCurrent("m", "v9"); err == nil {
		t.Fatal("SetCurrent accepted a version not in the registry")
	}
	if err := reg.SetCurrent("m", "v1"); err != nil {
		t.Fatal(err)
	}
	if cur, err := reg.Current("m"); err != nil || cur != "v1" {
		t.Fatalf("Current = %q, %v; want v1", cur, err)
	}
	// Reopening the same directory sees the same state: the manifest is the
	// durable record, not process memory.
	reg2, err := NewRegistry(reg.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if cur, _ := reg2.Current("m"); cur != "v1" {
		t.Fatalf("reopened registry Current = %q, want v1", cur)
	}
}

// TestRegistryReopenAfterPartialWrites simulates a crash mid-push and
// mid-promotion: stray .push-* / .manifest-* temp files are left in the
// model directory. A reopened registry must ignore them — Versions must not
// list them, Current must still resolve from the durable manifest, and a
// fresh push of the interrupted version must succeed.
func TestRegistryReopenAfterPartialWrites(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := artifactBytes(t, buildComposed(t, 9))
	if _, err := reg.Push("m", "v1", bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCurrent("m", "v1"); err != nil {
		t.Fatal(err)
	}

	// Crash debris: a half-written artifact push and a half-written
	// manifest replace, both abandoned before their renames.
	mdir := filepath.Join(dir, "m")
	for name, body := range map[string]string{
		".push-1234567":     "truncated artifact bytes",
		".manifest-7654321": `{"current":"v9"`,
	} {
		if err := os.WriteFile(filepath.Join(mdir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg2, err := NewRegistry(dir)
	if err != nil {
		t.Fatalf("reopening registry with crash debris: %v", err)
	}
	vs, err := reg2.Versions("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != "v1" {
		t.Fatalf("Versions after partial writes = %v, want [v1]", vs)
	}
	cur, err := reg2.Current("m")
	if err != nil || cur != "v1" {
		t.Fatalf("Current after partial writes = %q, %v; want v1", cur, err)
	}
	if _, err := reg2.Resolve("m", "v1"); err != nil {
		t.Fatalf("Resolve after partial writes: %v", err)
	}

	// The interrupted push can be retried cleanly, and promotion over the
	// debris still lands.
	raw2 := artifactBytes(t, buildComposed(t, 10))
	if _, err := reg2.Push("m", "v2", bytes.NewReader(raw2)); err != nil {
		t.Fatalf("retrying interrupted push: %v", err)
	}
	if err := reg2.SetCurrent("m", "v2"); err != nil {
		t.Fatal(err)
	}
	if cur, _ := reg2.Current("m"); cur != "v2" {
		t.Fatalf("Current after re-promotion = %q, want v2", cur)
	}
	if models, err := reg2.Models(); err != nil || len(models) != 1 || models[0] != "m" {
		t.Fatalf("Models after partial writes = %v, %v; want [m]", models, err)
	}
}
