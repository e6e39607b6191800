package serve

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/rna"
	"repro/internal/tensor"
)

// Path selects which execution substrate answers a request.
type Path string

const (
	// PathSoftware serves through the reinterpreted software model — the
	// codebook-exact predictor of the hardware (§3.2), fast enough for real
	// traffic.
	PathSoftware Path = "software"
	// PathHardware serves through the functional hardware network — every
	// accumulation as parallel counting + NOR addition, every activation as
	// an NDCAM search. Validation-grade: orders of magnitude slower.
	PathHardware Path = "hardware"
)

// Model is one served artifact: the composed model plus the execution paths
// instantiated from it. The executor state (Composed, software and hardware
// paths) can be atomically replaced by Scrub, so concurrent readers go
// through the locked accessors rather than the fields.
type Model struct {
	Name string
	// Composed is the loaded artifact. Treat as read-only once the model is
	// served: Scrub swaps it under the model lock.
	Composed *composer.Composed

	mu  sync.RWMutex
	re  *composer.Reinterpreted
	hw  *rna.HardwareNetwork
	ver VersionInfo
	// hwGolden is the hardware path's own answer to every canary, captured
	// at build time while the lowered network is known-pristine. Hardware
	// inference is deterministic, so later divergence means the executor
	// state decayed. (The software path checks against the artifact's
	// embedded predictions instead, which also catches disk corruption.)
	hwGolden []int
	degraded bool
	lastTest CanaryReport

	// Rebuild recipe for Scrub.
	srcPath   string // artifact file to reload, "" for in-memory models
	hardware  bool
	hwWorkers int
}

// canarySeed seeds SynthesizeCanaries for artifacts that carry none.
const canarySeed = 1

// VersionInfo identifies which artifact a model is actually serving — the
// rollout controller compares it against its registry before and after a
// scrub, so "the canary loaded v3" is verified, not assumed.
type VersionInfo struct {
	// Version is the artifact's version name: the file's base name without
	// extension for disk-backed models ("v3" for reg/mnist/v3.rapidnn),
	// "unversioned" for in-memory ones.
	Version string `json:"version"`
	// Format is the serialization format served: composer.FormatFlat for
	// disk-backed models, "in-memory" otherwise.
	Format string `json:"format"`
	// Checksum fingerprints the artifact file's content (FNV-1a over a
	// bounded prefix plus the size); empty for in-memory models. Two
	// replicas serving the same bytes report the same checksum.
	Checksum string `json:"checksum,omitempty"`
	// LoadedAt is when this executor state was (re)built.
	LoadedAt time.Time `json:"loaded_at"`
}

// fileVersionInfo derives a disk-backed model's identity from its artifact
// file. Checksum failures are not fatal — the file was just loaded, so a
// racing replace merely yields a fingerprint of the new bytes.
func fileVersionInfo(path string) VersionInfo {
	base := filepath.Base(path)
	v := VersionInfo{
		Version:  strings.TrimSuffix(base, filepath.Ext(base)),
		Format:   composer.FormatFlat,
		LoadedAt: time.Now(),
	}
	if sum, err := fileChecksum(path); err == nil {
		v.Checksum = sum
	}
	return v
}

// checksumPrefix bounds how much of the artifact the fingerprint reads. The
// artifact carries its real integrity checks inside (CRC-32C'd sections);
// this hash only needs to distinguish versions cheaply, without faulting a
// whole mmap'd file through the page cache.
const checksumPrefix = 1 << 20

func fileChecksum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	if _, err := io.CopyN(h, f, checksumPrefix); err != nil && err != io.EOF {
		return "", err
	}
	fmt.Fprintf(h, "|%d", st.Size())
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// NewModel wraps a composed model for serving. When hardware is true the
// functional-hardware path is lowered too, with hwWorkers bounding its
// batch fan-out (0 = GOMAXPROCS). Models without embedded canaries get
// deterministic synthesized ones, so every served model can self-test.
func NewModel(name string, c *composer.Composed, hardware bool, hwWorkers int) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: model needs a name")
	}
	c.SynthesizeCanaries(8, canarySeed)
	m := &Model{
		Name: name, Composed: c,
		re:       composer.NewReinterpreted(c.Net, c.Plans),
		hardware: hardware, hwWorkers: hwWorkers,
		ver: VersionInfo{Version: "unversioned", Format: "in-memory", LoadedAt: time.Now()},
	}
	if hardware {
		hw, err := rna.BuildHardwareNetwork(m.re.Net(), c.Plans, device.Default())
		if err != nil {
			return nil, fmt.Errorf("serve: lowering %s to hardware: %w", name, err)
		}
		hw.Workers = hwWorkers
		m.hw = hw
		golden, _, err := hw.InferBatchStats(canaryTensor(c))
		if err != nil {
			return nil, fmt.Errorf("serve: capturing %s hardware canaries: %w", name, err)
		}
		m.hwGolden = golden
	}
	return m, nil
}

// LoadModelFile reads a .rapidnn artifact saved by rapidnn-compose and
// wraps it for serving. The artifact is mmap'd zero-copy — the served tables
// stay views into the page cache, shared across replica processes — and the
// mapping is released when Scrub swaps the model out. An empty name
// defaults to the file's base name without extension.
func LoadModelFile(name, path string, hardware bool, hwWorkers int) (*Model, error) {
	c, err := composer.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	if name == "" {
		base := filepath.Base(path)
		name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	m, err := NewModel(name, c, hardware, hwWorkers)
	if err != nil {
		c.Close()
		return nil, err
	}
	m.srcPath = path
	m.ver = fileVersionInfo(path)
	return m, nil
}

// Version reports which artifact the model is currently serving.
func (m *Model) Version() VersionInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ver
}

// composed returns the current artifact under the model lock (Scrub swaps
// it).
func (m *Model) composed() *composer.Composed {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.Composed
}

func (m *Model) software() *composer.Reinterpreted {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.re
}

func (m *Model) hwNet() *rna.HardwareNetwork {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.hw
}

// InSize returns the number of input features a request row must carry.
func (m *Model) InSize() int { return m.composed().Net.InSize() }

// Classes returns the number of output classes.
func (m *Model) Classes() int { return m.composed().Net.OutSize() }

// Topology describes the served network's layer structure.
func (m *Model) Topology() string { return m.composed().Net.Topology() }

// HasHardware reports whether the functional-hardware path was lowered.
func (m *Model) HasHardware() bool { return m.hwNet() != nil }

// inferFn returns the batch-evaluation function of one execution path. Both
// are pure per row, so the batcher's coalescing cannot change any answer;
// the hardware path additionally reports the batch's substrate activity.
//
// A lane keeps its InferFn for the model's whole lifetime, so the closures
// must not freeze any executor state: Scrub swaps the Composed (and with it
// the feature width and, for mmap-backed artifacts, the table memory itself)
// under m.mu. Each batch therefore resolves the live state under the read
// lock and holds that lock across the evaluation — a Scrub waits for
// in-flight batches instead of unmapping the tables they are reading.
func (m *Model) inferFn(p Path) (InferFn, error) {
	switch p {
	case PathSoftware:
		var flat []float32 // owned by the dispatcher goroutine, reused per batch
		return func(rows [][]float32) ([]int, crossbar.Stats, error) {
			m.mu.RLock()
			defer m.mu.RUnlock()
			in := m.Composed.Net.InSize()
			var err error
			if flat, err = flattenBatch(flat, rows, in); err != nil {
				return nil, crossbar.Stats{}, err
			}
			preds := m.re.Predict(tensor.FromSlice(flat, len(rows), in))
			return preds, crossbar.Stats{}, nil
		}, nil
	case PathHardware:
		if m.hwNet() == nil {
			return nil, fmt.Errorf("serve: model %s was loaded without the hardware path", m.Name)
		}
		var flat []float32 // owned by the dispatcher goroutine, reused per batch
		return func(rows [][]float32) ([]int, crossbar.Stats, error) {
			m.mu.RLock()
			defer m.mu.RUnlock()
			hw := m.hw
			if hw == nil {
				return nil, crossbar.Stats{}, fmt.Errorf("serve: model %s lost its hardware path", m.Name)
			}
			in := hw.InSize()
			var err error
			if flat, err = flattenBatch(flat, rows, in); err != nil {
				return nil, crossbar.Stats{}, err
			}
			return hw.InferBatchStats(tensor.FromSlice(flat, len(rows), in))
		}, nil
	}
	return nil, fmt.Errorf("serve: unknown path %q (valid: %s, %s)", p, PathSoftware, PathHardware)
}

// flattenBatch packs a coalesced batch into one contiguous feature slice of
// in-wide rows, reusing buf's backing array when it is large enough. A row
// of any other width — a request admitted against a feature width that a
// concurrent Scrub then changed — is rejected here rather than silently
// mis-sliced. InferFn runs on the dispatcher goroutine only, so the closures
// above can keep one buffer each.
func flattenBatch(buf []float32, rows [][]float32, in int) ([]float32, error) {
	buf = buf[:0]
	for i, row := range rows {
		if len(row) != in {
			return buf, fmt.Errorf("serve: batch row %d has %d features, model wants %d", i, len(row), in)
		}
		buf = append(buf, row...)
	}
	return buf, nil
}

// Registry is the set of models a server exposes, keyed by name.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Model)}
}

// Add registers a model; duplicate names are an error.
func (r *Registry) Add(m *Model) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[m.Name]; dup {
		return fmt.Errorf("serve: duplicate model name %q", m.Name)
	}
	r.models[m.Name] = m
	return nil
}

// Get looks a model up by name.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	return m, ok
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for name := range r.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
