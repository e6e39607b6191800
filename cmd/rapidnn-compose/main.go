// Command rapidnn-compose trains a benchmark model and runs the RAPIDNN DNN
// composer on it, printing the reinterpretation quality, the per-layer
// codebooks and table sizes, and the resulting accelerator memory footprint.
//
// Usage:
//
//	rapidnn-compose [-dataset MNIST] [-scale 0.25] [-epochs 8] [-w 64] [-u 64] [-iters 5]
//	rapidnn-compose -save model.rapidnn
//
// -save writes the composed model as a RAPIDNN2 artifact, the zero-copy
// layout rapidnn-infer and rapidnn-serve mmap with no decode pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/composer"
	"repro/internal/dataset"
	"repro/internal/model"
)

func main() {
	name := flag.String("dataset", "MNIST", "benchmark dataset (MNIST, ISOLET, HAR, CIFAR-10, CIFAR-100, ImageNet)")
	scale := flag.Float64("scale", 0.25, "model width scale (1.0 = paper sizes)")
	epochs := flag.Int("epochs", 8, "baseline training epochs")
	w := flag.Int("w", 64, "weight codebook size")
	u := flag.Int("u", 64, "input codebook size")
	iters := flag.Int("iters", 5, "max composer iterations")
	share := flag.Float64("share", 0, "RNA sharing fraction (0..0.3)")
	savePath := flag.String("save", "", "write the composed model to this file as a RAPIDNN2 artifact")
	flag.Parse()

	var bm *model.Benchmark
	for _, b := range model.Benchmarks(dataset.Small, *scale) {
		if strings.EqualFold(b.Dataset.Name, *name) {
			bm = b
			break
		}
	}
	if bm == nil {
		fmt.Fprintf(os.Stderr, "rapidnn-compose: unknown dataset %q (valid: %s)\n",
			*name, strings.Join(dataset.Names(), ", "))
		os.Exit(1)
	}

	fmt.Printf("dataset:  %s\n", bm.Dataset)
	fmt.Printf("topology: %s (%d params, %d MACs)\n", bm.Net.Topology(), bm.Net.ParamCount(), bm.Net.MACs())

	cfg := model.DefaultTrain()
	cfg.Epochs = *epochs
	baseErr := model.Train(bm.Net, bm.Dataset, cfg)
	fmt.Printf("baseline error: %.2f%% (paper reports %.1f%% on the real dataset)\n\n",
		100*baseErr, 100*bm.PaperError)

	ccfg := composer.DefaultConfig()
	ccfg.WeightClusters, ccfg.InputClusters = *w, *u
	ccfg.MaxIterations = *iters
	ccfg.ShareFraction = *share
	c, err := composer.Compose(bm.Net, bm.Dataset, ccfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-compose: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("composed with w=%d u=%d:\n", *w, *u)
	fmt.Printf("  reinterpreted error: %.2f%% (dE = %+.2f%%)\n", 100*c.FinalError, 100*c.DeltaE())
	fmt.Printf("  retraining epochs:   %d\n", c.TotalEpochs)
	for _, h := range c.History {
		fmt.Printf("    iteration %d: clustered error %.2f%%\n", h.Iteration, 100*h.ClusteredError)
	}

	mm := composer.DefaultMemoryModel()
	fmt.Printf("  accelerator tables:  %.1f MB total\n", float64(mm.TotalBytes(c.Plans))/1e6)

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidnn-compose: %v\n", err)
			os.Exit(1)
		}
		if err := c.SaveFlat(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "rapidnn-compose: save: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rapidnn-compose: close: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  saved composed model to %s (%s)\n", *savePath, composer.FormatFlat)
	}
	fmt.Println("\nper-layer plans:")
	for _, p := range c.Plans {
		if !p.IsCompute() {
			continue
		}
		rows := 0
		if p.ActTable != nil {
			rows = p.ActTable.Rows()
		}
		fmt.Printf("  %-6s %-5s neurons=%-6d edges=%-6d w=%-3d u=%-3d actRows=%-3d books=%d  %.1f KB/neuron\n",
			p.Name, p.Kind, p.Neurons, p.Edges, p.W(), p.U(), rows, len(p.WeightCodebooks),
			float64(mm.NeuronBytes(p))/1024)
	}
}
