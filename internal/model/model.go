// Package model builds the benchmark network topologies of the paper's
// Table 2 and §5.2 and trains their full-precision baselines. The ImageNet
// architectures (AlexNet, VGG-16, GoogLeNet, ResNet-152) are represented by
// scaled-down analogues with the same architectural flavour — depth ordering
// and conv/FC mix — since the real models are far beyond a CPU-simulator
// budget (see DESIGN.md, "Substitutions").
package model

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Scale shrinks hidden widths for fast tests; 1.0 reproduces the paper's
// layer sizes for the FC benchmarks.
func scaled(width int, scale float64) int {
	w := int(float64(width) * scale)
	if w < 4 {
		w = 4
	}
	return w
}

// dropRate scales the paper's 0.5 dropout with the model width: a 0.5 drop
// rate on a 40-unit hidden layer destroys the scaled-down fixtures, while
// the full-size 512-unit layers train with the paper's setting.
func dropRate(scale float64) float64 {
	r := 0.5 * scale
	if r > 0.5 {
		r = 0.5
	}
	return r
}

// FCNet builds the paper's 2×512 fully-connected topology (MNIST, ISOLET,
// HAR rows of Table 2) with dropout 0.5 on FC layers as in §5.2.
func FCNet(name string, in, classes int, scale float64, seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	h := scaled(512, scale)
	return nn.NewNetwork(name).
		Add(nn.NewDense("fc1", in, h, nn.ReLU{}, rng)).
		Add(nn.NewDropout("do1", h, dropRate(scale), rng)).
		Add(nn.NewDense("fc2", h, h, nn.ReLU{}, rng)).
		Add(nn.NewDropout("do2", h, dropRate(scale), rng)).
		Add(nn.NewDense("out", h, classes, nn.Identity{}, rng))
}

// ConvNet builds the CIFAR topology of Table 2:
// CV:32×3×3, PL:2×2, CV:64×3×3, CV:64×3×3, FC:512, FC:classes.
func ConvNet(name string, inC, inH, inW, classes int, scale float64, seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	c1, c2 := scaled(32, scale), scaled(64, scale)
	h := scaled(512, scale)
	g1 := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv1 := nn.NewConv2D("cv1", g1, c1, nn.ReLU{}, rng)
	pc, ph, pw := conv1.OutGeom()
	pool := nn.NewPool2D("pl1", nn.MaxPool, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
	qc, qh, qw := pool.OutGeom()
	g2 := tensor.ConvGeom{InC: qc, InH: qh, InW: qw, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv2 := nn.NewConv2D("cv2", g2, c2, nn.ReLU{}, rng)
	rc, rh, rw := conv2.OutGeom()
	g3 := tensor.ConvGeom{InC: rc, InH: rh, InW: rw, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv3 := nn.NewConv2D("cv3", g3, c2, nn.ReLU{}, rng)
	sc, sh, sw := conv3.OutGeom()
	return nn.NewNetwork(name).
		Add(conv1).
		Add(pool).
		Add(conv2).
		Add(conv3).
		Add(nn.NewDense("fc1", sc*sh*sw, h, nn.ReLU{}, rng)).
		Add(nn.NewDropout("do1", h, dropRate(scale), rng)).
		Add(nn.NewDense("out", h, classes, nn.Identity{}, rng))
}

// ImageNetStyle names the four ImageNet architectures of Table 2.
type ImageNetStyle int

const (
	AlexNet ImageNetStyle = iota
	VGGNet
	GoogLeNet
	ResNet
)

func (s ImageNetStyle) String() string {
	switch s {
	case AlexNet:
		return "AlexNet"
	case VGGNet:
		return "VGGNet"
	case GoogLeNet:
		return "GoogLeNet"
	}
	return "ResNet"
}

// ImageNetNet builds a scaled-down analogue of the named ImageNet
// architecture over the synthetic ImageNet stand-in: AlexNet-style is wide
// and shallow, VGG-style stacks uniform 3×3 convs, GoogLeNet-style is
// narrower but deeper, ResNet-style the deepest.
func ImageNetNet(style ImageNetStyle, inC, inH, inW, classes int, scale float64, seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	type convSpec struct{ ch int }
	var convs []convSpec
	var hidden int
	switch style {
	case AlexNet:
		convs = []convSpec{{48}, {64}}
		hidden = 512
	case VGGNet:
		convs = []convSpec{{32}, {48}, {64}, {64}}
		hidden = 512
	case GoogLeNet:
		convs = []convSpec{{24}, {32}, {48}, {48}, {64}}
		hidden = 256
	case ResNet:
		convs = []convSpec{{24}, {32}, {32}, {48}, {48}, {64}}
		hidden = 256
	}
	net := nn.NewNetwork(style.String())
	c, h, w := inC, inH, inW
	for i, cs := range convs {
		ch := scaled(cs.ch, scale)
		g := tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 3, KW: 3, Stride: 1, Pad: 1}
		var conv *nn.Conv2D
		// ResNet-style: whenever a conv preserves its shape, make it a true
		// residual block (§4.3's skipped-connection support).
		if style == ResNet && ch == c {
			conv = nn.NewResidualConv2D(convName(i), g, nn.ReLU{}, rng)
		} else {
			conv = nn.NewConv2D(convName(i), g, ch, nn.ReLU{}, rng)
		}
		net.Add(conv)
		c, h, w = conv.OutGeom()
		// Halve spatial dims after every other conv while big enough.
		if i%2 == 1 && h >= 4 {
			pool := nn.NewPool2D(poolName(i), nn.MaxPool, tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 2, KW: 2, Stride: 2})
			net.Add(pool)
			c, h, w = pool.OutGeom()
		}
	}
	hd := scaled(hidden, scale)
	net.Add(nn.NewDense("fc1", c*h*w, hd, nn.ReLU{}, rng)).
		Add(nn.NewDropout("do1", hd, dropRate(scale), rng)).
		Add(nn.NewDense("out", hd, classes, nn.Identity{}, rng))
	return net
}

func convName(i int) string { return "cv" + string(rune('1'+i)) }
func poolName(i int) string { return "pl" + string(rune('1'+i)) }

// TrainConfig bundles baseline-training hyper-parameters (§5.2: SGD with
// momentum, dropout already inside the nets).
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
}

// DefaultTrain mirrors the spirit of the paper's setup at laptop scale.
func DefaultTrain() TrainConfig {
	return TrainConfig{Epochs: 12, BatchSize: 32, LR: 0.02, Momentum: 0.9}
}

// Train runs SGD over the dataset's training split and returns the final
// test error rate.
func Train(net *nn.Network, ds *dataset.Dataset, cfg TrainConfig) float64 {
	opt := &nn.SGD{LR: cfg.LR, Momentum: cfg.Momentum}
	for e := 0; e < cfg.Epochs; e++ {
		ds.Batches(cfg.BatchSize, func(x *tensor.Tensor, labels []int) {
			net.TrainBatch(x, labels, opt)
		})
	}
	return net.ErrorRate(ds.TestX, ds.TestY)
}

// Benchmark couples a dataset with its paper topology.
type Benchmark struct {
	Dataset *dataset.Dataset
	Net     *nn.Network
	// PaperError is the baseline error rate the paper reports in Table 2.
	PaperError float64
}

// Benchmarks builds the six Table 2 benchmarks at the given data size and
// width scale, untrained.
func Benchmarks(size dataset.Size, scale float64) []*Benchmark {
	mnist, isolet, har := dataset.MNIST(size), dataset.ISOLET(size), dataset.HAR(size)
	c10, c100, inet := dataset.CIFAR10(size), dataset.CIFAR100(size), dataset.ImageNet(size)
	return []*Benchmark{
		{Dataset: mnist, Net: FCNet("MNIST", mnist.InSize(), 10, scale, 201), PaperError: 0.015},
		{Dataset: isolet, Net: FCNet("ISOLET", isolet.InSize(), 26, scale, 202), PaperError: 0.036},
		{Dataset: har, Net: FCNet("HAR", har.InSize(), 19, scale, 203), PaperError: 0.017},
		{Dataset: c10, Net: ConvNet("CIFAR-10", 3, 32, 32, 10, scale, 204), PaperError: 0.144},
		{Dataset: c100, Net: ConvNet("CIFAR-100", 3, 32, 32, 100, scale, 205), PaperError: 0.423},
		{Dataset: inet, Net: ImageNetNet(VGGNet, 3, 32, 32, 40, scale, 206), PaperError: 0.285},
	}
}
