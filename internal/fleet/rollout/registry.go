// Package rollout is the fleet's versioned artifact registry and staged
// deployment controller. The registry is a plain directory tree —
// dir/<model>/<version>.rapidnn plus a MANIFEST.json per model naming the
// version the fleet should serve — so pushing a version is an atomic rename
// and any replica can load straight from the shared path (RAPIDNN2
// artifacts mmap out of the same page cache). The controller lifts the
// per-process canary self-test protocol to fleet level: a new version is
// loaded on a canary subset first via the generalized /v1/scrub, gated on
// the canaries' self-test verdicts plus live error-rate deltas, and only
// then promoted to the rest of the pool — or rolled back, without ever
// draining a healthy replica.
package rollout

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/composer"
)

// ArtifactExt is the artifact file extension the registry manages.
const ArtifactExt = ".rapidnn"

// Registry is a directory-backed versioned artifact store. All methods are
// safe for concurrent use by virtue of atomic renames; the manifest is the
// only mutable file and is replaced, never rewritten in place.
type Registry struct {
	dir string
}

// NewRegistry opens (creating if needed) a registry rooted at dir.
func NewRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rollout: %w", err)
	}
	return &Registry{dir: dir}, nil
}

// Dir returns the registry root.
func (r *Registry) Dir() string { return r.dir }

// validName guards model/version names against path traversal: they become
// path components.
func validName(s string) error {
	if s == "" {
		return fmt.Errorf("rollout: empty name")
	}
	if strings.ContainsAny(s, `/\`) || s == "." || s == ".." {
		return fmt.Errorf("rollout: invalid name %q", s)
	}
	return nil
}

// syncDir fsyncs a directory so a preceding rename inside it survives a
// crash. Directory fsync failing is reported: a registry that silently
// loses a push or a promotion is worse than one that errors.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Path returns where a (model, version) artifact lives, whether or not it
// exists yet.
func (r *Registry) Path(model, version string) string {
	return filepath.Join(r.dir, model, version+ArtifactExt)
}

// Resolve returns the artifact path for a version that must exist.
func (r *Registry) Resolve(model, version string) (string, error) {
	if err := validName(model); err != nil {
		return "", err
	}
	if err := validName(version); err != nil {
		return "", err
	}
	p := r.Path(model, version)
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("rollout: version %s of %s not in registry: %w", version, model, err)
	}
	return p, nil
}

// Push stores a new version: the bytes are written to a temp file, fully
// verified (the artifact must load cleanly and replay its embedded
// canaries without divergence — the registry refuses corrupt or
// stale pushes outright, so the fleet only ever rolls out artifacts that at
// least passed offline validation), then renamed into place. Pushing an
// existing (model, version) is an error: versions are immutable.
func (r *Registry) Push(model, version string, src io.Reader) (string, error) {
	if err := validName(model); err != nil {
		return "", err
	}
	if err := validName(version); err != nil {
		return "", err
	}
	final := r.Path(model, version)
	if _, err := os.Stat(final); err == nil {
		return "", fmt.Errorf("rollout: version %s of %s already exists (versions are immutable)", version, model)
	}
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return "", fmt.Errorf("rollout: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(final), ".push-*")
	if err != nil {
		return "", fmt.Errorf("rollout: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, src); err != nil {
		tmp.Close()
		return "", fmt.Errorf("rollout: writing %s/%s: %w", model, version, err)
	}
	// Sync before close so the rename below publishes durable bytes — a
	// rename can survive a crash that the renamed file's contents did not.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("rollout: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("rollout: %w", err)
	}
	if failed, err := composer.VerifyFile(tmp.Name()); err != nil {
		return "", fmt.Errorf("rollout: push of %s/%s rejected: %w", model, version, err)
	} else if failed > 0 {
		return "", fmt.Errorf("rollout: push of %s/%s rejected: %d canaries diverge from their golden predictions", model, version, failed)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("rollout: %w", err)
	}
	if err := syncDir(filepath.Dir(final)); err != nil {
		return "", fmt.Errorf("rollout: %w", err)
	}
	return final, nil
}

// Versions lists a model's stored versions, sorted. A model with no
// directory has no versions — not an error.
func (r *Registry) Versions(model string) ([]string, error) {
	if err := validName(model); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(filepath.Join(r.dir, model))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("rollout: %w", err)
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ArtifactExt) {
			continue
		}
		out = append(out, strings.TrimSuffix(e.Name(), ArtifactExt))
	}
	sort.Strings(out)
	return out, nil
}

// Models lists the models with at least one stored version, sorted.
func (r *Registry) Models() ([]string, error) {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("rollout: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		vs, err := r.Versions(e.Name())
		if err == nil && len(vs) > 0 {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// manifest is the per-model deployment record.
type manifest struct {
	Current   string    `json:"current"`
	UpdatedAt time.Time `json:"updated_at"`
}

func (r *Registry) manifestPath(model string) string {
	return filepath.Join(r.dir, model, "MANIFEST.json")
}

// Current returns the version the manifest says the fleet should serve; ""
// when nothing has been promoted yet.
func (r *Registry) Current(model string) (string, error) {
	if err := validName(model); err != nil {
		return "", err
	}
	data, err := os.ReadFile(r.manifestPath(model))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("rollout: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return "", fmt.Errorf("rollout: corrupt manifest for %s: %w", model, err)
	}
	return m.Current, nil
}

// SetCurrent records a promotion in the manifest (atomic replace). The
// version must exist in the registry.
func (r *Registry) SetCurrent(model, version string) error {
	if _, err := r.Resolve(model, version); err != nil {
		return err
	}
	data, err := json.MarshalIndent(manifest{Current: version, UpdatedAt: time.Now()}, "", "  ")
	if err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	mp := r.manifestPath(model)
	tmp, err := os.CreateTemp(filepath.Dir(mp), ".manifest-*")
	if err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("rollout: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("rollout: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	if err := os.Rename(tmp.Name(), mp); err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	if err := syncDir(filepath.Dir(mp)); err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	return nil
}
