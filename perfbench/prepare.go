package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/rna"
	"repro/internal/tensor"
)

// recipe fixes how a workload's model is trained and composed. It does not
// depend on the workload seed, so every run serves the same artifact.
type recipe struct {
	dataset string
	scale   float64 // width scale of the model topology (1 = the paper's)
	epochs  int     // baseline training epochs
	iters   int     // composer iterations
	w, u    int     // weight and input codebook sizes
}

var (
	// mnistFC is 784 → 64 → 64 → 10, fully connected.
	mnistFC = recipe{dataset: "MNIST", scale: 0.125, epochs: 3, iters: 2, w: 16, u: 16}
	// cifarConv is the CIFAR topology (conv, pool, conv, conv, dense,
	// dense) at an eighth of its width.
	cifarConv = recipe{dataset: "CIFAR-10", scale: 0.125, epochs: 3, iters: 1, w: 16, u: 16}
)

// Fault scenario of bulk-faults: seeded stuck-at cells and failed CAM rows
// under parity, spare-row repair and TMR. The rates are high enough that
// every seed draws failed CAM rows and exercises every mechanism (the model
// has only 32 primary CAM rows, so at a quarter of them failing a seed
// without one has odds of 1 in 10^4). Failed rows are dead rather than
// shorted: a shorted row matches every search. Transient faults stay out:
// the worker pool does not make them bit-reproducible, so outputs could not
// be checked.
var (
	bulkFaultRates = fault.Config{StuckRate: 5e-3, CAMRowRate: 0.25, CAMShortFrac: 0.001}
	bulkProtection = fault.Protection{Parity: true, SpareRows: 4, TMR: true}
)

// bulkFaults returns the fault scenario drawn for a workload seed.
func bulkFaults(seed int64) fault.Config {
	cfg := bulkFaultRates
	cfg.Seed = seed
	return cfg
}

// inputs is what the prepare step hands the measuring process: the request
// pool and every pool row's reference answers, computed by calling the
// executors directly.
type inputs struct {
	InSize int
	Pool   [][]float32
	// Software is Reinterpreted.Predict per pool row; Hardware and
	// HWStats are HardwareNetwork.InferBatchStats per pool row (under the
	// workload's fault scenario, if any).
	Software []int
	Hardware []int
	HWStats  []crossbar.Stats
	// FaultReport and FaultCounts describe the injected faults and the
	// protection events of one pass over the pool (bulk-faults only).
	FaultReport fault.Report
	FaultCounts fault.Snapshot
	Digest      string
}

// prepareMain is the prepare step, run as a child process so neither its
// composition work nor its memory counts against the measured process. It
// composes the workload's model, writes it as a RAPIDNN2 artifact and
// writes the reference answers next to it.
func prepareMain(args []string) error {
	fs := flag.NewFlagSet("prepare", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	dir := fs.String("dir", "", "directory for the artifact and references")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	ds, err := compose(wl.recipe, filepath.Join(*dir, artifactName))
	if err != nil {
		return err
	}
	in, err := references(wl, *seed, filepath.Join(*dir, artifactName), ds.TestX)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*dir, inputsName))
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(in); err != nil {
		f.Close()
		return fmt.Errorf("writing references: %w", err)
	}
	return f.Close()
}

const (
	artifactName = "model.rapidnn"
	inputsName   = "inputs.gob"
)

// compose trains and composes the recipe's model and saves it as a
// RAPIDNN2 artifact at path. It returns the dataset, whose test split is
// the request pool.
func compose(rc recipe, path string) (*dataset.Dataset, error) {
	var bm *model.Benchmark
	for _, b := range model.Benchmarks(dataset.Small, rc.scale) {
		if b.Dataset.Name == rc.dataset {
			bm = b
		}
	}
	if bm == nil {
		return nil, fmt.Errorf("no benchmark model for dataset %s", rc.dataset)
	}
	tc := model.DefaultTrain()
	tc.Epochs = rc.epochs
	model.Train(bm.Net, bm.Dataset, tc)
	cc := composer.DefaultConfig()
	cc.WeightClusters, cc.InputClusters = rc.w, rc.u
	cc.MaxIterations = rc.iters
	c, err := composer.Compose(bm.Net, bm.Dataset, cc)
	if err != nil {
		return nil, fmt.Errorf("composing %s: %w", rc.dataset, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := c.SaveFlat(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("saving artifact: %w", err)
	}
	return bm.Dataset, f.Close()
}

// references loads the artifact the way the measured process will and
// answers every pool row through both executors.
func references(wl workload, seed int64, path string, pool *tensor.Tensor) (*inputs, error) {
	c, err := composer.LoadFile(path)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := rna.BuildHardwareNetwork(re.Net(), c.Plans, device.Default())
	if err != nil {
		return nil, err
	}
	in := &inputs{InSize: pool.Dim(1), Software: re.Predict(pool)}
	if wl.faults {
		if in.FaultReport, err = hw.InjectFaults(bulkFaults(seed)); err != nil {
			return nil, err
		}
		hw.SetProtection(bulkProtection)
	}
	n := pool.Dim(0)
	in.Pool = make([][]float32, n)
	for i := range in.Pool {
		in.Pool[i] = append([]float32(nil), pool.Data()[i*in.InSize:(i+1)*in.InSize]...)
	}
	in.Hardware, in.HWStats, err = perRow(hw, in.Pool)
	if err != nil {
		return nil, err
	}
	in.FaultCounts = hw.FaultCounters().Snapshot()
	if wl.faults {
		fc := in.FaultCounts
		if fc.Corrected == 0 || fc.Remapped == 0 || fc.TMRVotes == 0 || in.FaultReport.CAMRowsFailed == 0 {
			return nil, fmt.Errorf("fault scenario too mild: corrected %d, remapped %d, TMR votes %d, failed CAM rows %d",
				fc.Corrected, fc.Remapped, fc.TMRVotes, in.FaultReport.CAMRowsFailed)
		}
	}
	in.Digest = in.digest()
	return in, nil
}

// perRow answers each row with its own InferBatchStats call, so every row's
// simulated activity is known on its own; GOMAXPROCS callers share the rows.
func perRow(hw *rna.HardwareNetwork, rows [][]float32) ([]int, []crossbar.Stats, error) {
	preds := make([]int, len(rows))
	stats := make([]crossbar.Stats, len(rows))
	errs := make([]error, len(rows))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p, st, err := hw.InferBatchStats(tensor.FromSlice(rows[i], 1, len(rows[i])))
				if err == nil {
					preds[i], stats[i] = p[0], st
				}
				errs[i] = err
			}
		}()
	}
	for i := range rows {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return preds, stats, nil
}

// digest hashes everything the executors produced for the pool: software
// and hardware predictions, each row's simulated crossbar activity and the
// fault and protection counters. Two commits whose executors are
// bit-identical print the same digest for the same seed.
func (in *inputs) digest() string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for i := range in.Pool {
		st := in.HWStats[i]
		put(int64(in.Software[i]))
		put(int64(in.Hardware[i]))
		put(st.Cycles)
		put(st.NORs)
		put(st.Reads)
		put(st.Writes)
		put(int64(math.Float64bits(st.EnergyJ)))
	}
	r, c := in.FaultReport, in.FaultCounts
	for _, v := range []int64{int64(r.StuckCells), int64(r.StuckBits), int64(r.CAMRowsFailed),
		c.Corrected, c.Detected, c.Uncorrectable, c.Remapped, c.SpareShortfall,
		c.TMRVotes, c.TMRDisagreements, c.TransientFlips} {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// loadInputs reads the prepare step's output.
func loadInputs(path string) (*inputs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in := new(inputs)
	if err := gob.NewDecoder(f).Decode(in); err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	return in, nil
}
