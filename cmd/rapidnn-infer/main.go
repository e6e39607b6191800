// Command rapidnn-infer maps a RAPIDNN2 artifact saved by rapidnn-compose,
// evaluates its reinterpreted accuracy on the named benchmark dataset, and
// optionally validates a number of samples through the functional hardware
// path — parallel counting, NOR-decomposed in-memory addition and NDCAM
// searches — reporting the hardware/software agreement and the substrate
// activity.
//
// It also bulk-scores feature files offline: -score streams a CSV of
// feature rows (one input per line) through the reinterpreted model in
// fixed-size batches — memory stays O(batch) however large the file — and
// writes one predicted class per line.
//
// Usage:
//
//	rapidnn-infer -model model.rapidnn -dataset MNIST [-hw 20] [-workers N]
//	rapidnn-infer -model model.rapidnn -score features.csv [-out preds.txt] [-batch 256] [-header]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/bench"
	"repro/internal/composer"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/rna"
	"repro/internal/tensor"
)

func main() {
	modelPath := flag.String("model", "", "path to a model saved by rapidnn-compose -save")
	dsName := flag.String("dataset", "MNIST", "benchmark dataset to evaluate on")
	hwSamples := flag.Int("hw", 0, "validate this many samples through the functional hardware path")
	workers := flag.Int("workers", 0, "hardware-validation worker goroutines (0 = GOMAXPROCS)")
	scorePath := flag.String("score", "", "bulk-score this CSV of feature rows instead of evaluating a dataset")
	outPath := flag.String("out", "", "write bulk-scoring predictions here (default stdout)")
	batch := flag.Int("batch", 256, "bulk-scoring batch size")
	header := flag.Bool("header", false, "the -score file starts with a header line")
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "rapidnn-infer: -model is required")
		os.Exit(1)
	}

	// The artifact maps in with no decode pass.
	c, err := composer.LoadFile(*modelPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-infer: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("loaded %s (mapped): %s\n", *modelPath, c.Net.Topology())
	fmt.Printf("recorded quality: baseline %.2f%%, reinterpreted %.2f%%\n",
		100*c.BaselineError, 100*c.FinalError)

	if *scorePath != "" {
		if err := bulkScore(c, *scorePath, *outPath, *batch, *header); err != nil {
			fmt.Fprintf(os.Stderr, "rapidnn-infer: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ds, err := dataset.ByName(*dsName, dataset.Small)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-infer: %v\n", err)
		os.Exit(1)
	}
	if ds.InSize() != c.Net.InSize() {
		fmt.Fprintf(os.Stderr, "rapidnn-infer: model wants %d features, %s has %d\n",
			c.Net.InSize(), ds.Name, ds.InSize())
		os.Exit(1)
	}

	re := composer.NewReinterpreted(c.Net, c.Plans)
	swErr := re.ErrorRate(ds.TestX, ds.TestY)
	fmt.Printf("software reinterpreted error on %s test split: %.2f%%\n", ds.Name, 100*swErr)

	if *hwSamples <= 0 {
		return
	}
	n := *hwSamples
	if n > ds.TestX.Dim(0) {
		n = ds.TestX.Dim(0)
	}
	hw, err := rna.BuildHardwareNetwork(re.Net(), c.Plans, device.Default())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-infer: hardware lowering: %v\n", err)
		os.Exit(1)
	}
	in := ds.InSize()
	hw.Workers = *workers
	sample := tensor.FromSlice(ds.TestX.Data()[:n*in], n, in)
	hwPreds, hwStats, err := hw.InferBatchStats(sample)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-infer: %v\n", err)
		os.Exit(1)
	}
	swPreds := re.Predict(sample)
	agree, correct := 0, 0
	for i := 0; i < n; i++ {
		if hwPreds[i] == swPreds[i] {
			agree++
		}
		if hwPreds[i] == ds.TestY[i] {
			correct++
		}
	}
	fmt.Printf("\nhardware-in-the-loop on %d samples:\n", n)
	fmt.Printf("  hardware/software agreement: %d/%d\n", agree, n)
	fmt.Printf("  hardware accuracy:           %d/%d\n", correct, n)
	fmt.Printf("  substrate activity: %d NOR cycles, %d operand writes, %.2f nJ in the crossbars\n",
		hwStats.NORs, hwStats.Writes, hwStats.EnergyJ*1e9)
}

// bulkScore streams the feature file through the reinterpreted model in
// fixed-size batches and writes one predicted class per input line.
func bulkScore(c *composer.Composed, scorePath, outPath string, batch int, header bool) error {
	in, err := os.Open(scorePath)
	if err != nil {
		return err
	}
	defer in.Close()
	var out *os.File
	if outPath != "" {
		if out, err = os.Create(outPath); err != nil {
			return err
		}
	} else {
		out = os.Stdout
	}
	w := bufio.NewWriterSize(out, 1<<16)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	features := c.Net.InSize()
	rr, err := bench.NewRecordReader(in, features, header)
	if err != nil {
		return err
	}
	n, err := bench.BulkScore(rr, features, batch,
		func(x *tensor.Tensor) ([]int, error) { return re.Predict(x), nil },
		func(base int, preds []int) error {
			for _, p := range preds {
				if _, err := w.WriteString(strconv.Itoa(p)); err != nil {
					return err
				}
				if err := w.WriteByte('\n'); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if outPath != "" {
		if err := out.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "scored %d rows (%d features each) in batches of %d\n", n, features, batch)
	return nil
}
