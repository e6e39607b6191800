package bench

import (
	"fmt"

	"repro/internal/composer"
	"repro/internal/nn"
	"repro/internal/quant"
)

// planSpec describes one layer of a paper-scale topology by geometry alone:
// hardware studies need neuron counts, incoming-edge counts and (for
// convolutions) output-channel counts, not weight tensors — which lets the
// harness model real VGG-16/ResNet-scale workloads (15+ GMACs, millions of
// neurons) without allocating hundreds of megabytes of parameters.
type planSpec struct {
	kind     composer.LayerKind
	neurons  int
	edges    int
	channels int // conv output channels (0 for dense/pool)
	sigmoid  bool
}

// specPlans lowers a spec list into layer plans with synthetic codebooks.
func specPlans(specs []planSpec, w, u, actRows int) ([]*composer.LayerPlan, int64) {
	wcb := evenCB(w)
	ucb := evenCB(u)
	var macs int64
	plans := make([]*composer.LayerPlan, len(specs))
	for i, sp := range specs {
		p := &composer.LayerPlan{Index: i, Name: fmt.Sprintf("L%d", i), Kind: sp.kind,
			Neurons: sp.neurons, Edges: sp.edges}
		if sp.kind == composer.KindDense || sp.kind == composer.KindConv {
			macs += int64(sp.neurons) * int64(sp.edges)
			p.InputCodebook = ucb
			books := 1
			if sp.kind == composer.KindConv && sp.channels > 0 {
				books = sp.channels
			}
			p.WeightCodebooks = make([][]float32, books)
			p.ChannelCodebook = make([]int, books)
			for b := 0; b < books; b++ {
				p.WeightCodebooks[b] = wcb
				p.ChannelCodebook[b] = b
			}
			if sp.sigmoid {
				p.ActTable = quant.BuildActTable(sigmoidAct{}, actRows, -8, 8, quant.NonLinear)
			}
		}
		plans[i] = p
	}
	return plans, macs
}

func evenCB(n int) []float32 {
	cb := make([]float32, n)
	for i := range cb {
		cb[i] = 2*float32(i)/float32(max(n-1, 1)) - 1
	}
	return cb
}

// sigmoidAct satisfies quant's activation needs for spec-built tables.
type sigmoidAct = nn.Sigmoid

// PaperScaleNet builds the plans and MAC count of a real-dimension ImageNet
// architecture (224×224×3 inputs, 1000 classes). These drive the
// hardware-only comparisons (Figs. 13, 15, 16 and §5.5) at the workload
// scale the paper evaluates.
func PaperScaleNet(name string, w, u int) (*HWBench, error) {
	var specs []planSpec
	conv := func(outC, outHW, edges int) planSpec {
		return planSpec{kind: composer.KindConv, neurons: outC * outHW * outHW, edges: edges, channels: outC}
	}
	pool := func(c, outHW, window int) planSpec {
		return planSpec{kind: composer.KindPool, neurons: c * outHW * outHW, edges: window}
	}
	fc := func(out, in int) planSpec {
		return planSpec{kind: composer.KindDense, neurons: out, edges: in}
	}
	switch name {
	case "AlexNet":
		specs = []planSpec{
			conv(96, 55, 363), pool(96, 27, 9),
			conv(256, 27, 2400), pool(256, 13, 9),
			conv(384, 13, 2304), conv(384, 13, 3456), conv(256, 13, 3456), pool(256, 6, 9),
			fc(4096, 9216), fc(4096, 4096), fc(1000, 4096),
		}
	case "VGGNet":
		specs = []planSpec{
			conv(64, 224, 27), conv(64, 224, 576), pool(64, 112, 4),
			conv(128, 112, 576), conv(128, 112, 1152), pool(128, 56, 4),
			conv(256, 56, 1152), conv(256, 56, 2304), conv(256, 56, 2304), pool(256, 28, 4),
			conv(512, 28, 2304), conv(512, 28, 4608), conv(512, 28, 4608), pool(512, 14, 4),
			conv(512, 14, 4608), conv(512, 14, 4608), conv(512, 14, 4608), pool(512, 7, 4),
			fc(4096, 25088), fc(4096, 4096), fc(1000, 4096),
		}
	case "GoogLeNet":
		specs = []planSpec{
			conv(64, 112, 147), pool(64, 56, 9),
			conv(192, 56, 576), pool(192, 28, 9),
			conv(256, 28, 1728), conv(480, 28, 2304), pool(480, 14, 9),
			conv(512, 14, 4320), conv(528, 14, 4608), conv(832, 14, 4752), pool(832, 7, 9),
			conv(1024, 7, 7488),
			fc(1000, 1024),
		}
	case "ResNet":
		specs = []planSpec{conv(64, 112, 147), pool(64, 56, 9)}
		// 152-layer ResNet approximated by its bottleneck stages.
		stage := func(blocks, c, hw int) {
			for b := 0; b < blocks; b++ {
				specs = append(specs,
					conv(c, hw, c*4), conv(c, hw, c*9), conv(c*4, hw, c))
			}
		}
		stage(3, 64, 56)
		stage(8, 128, 28)
		stage(36, 256, 14)
		stage(3, 512, 7)
		specs = append(specs, pool(2048, 1, 49), fc(1000, 2048))
	default:
		return nil, fmt.Errorf("bench: unknown paper-scale net %q", name)
	}
	plans, macs := specPlans(specs, w, u, 64)
	hb := &HWBench{Name: name, Conv: true, Plans: plans, MACs: macs}
	hb.replan = func(w, u int) []*composer.LayerPlan {
		p, _ := specPlans(specs, w, u, 64)
		return p
	}
	return hb, nil
}

// PaperScaleNames lists the real-dimension architectures PaperScaleNet
// accepts, in Table 2 order.
func PaperScaleNames() []string {
	return []string{"AlexNet", "VGGNet", "GoogLeNet", "ResNet"}
}

// PaperScaleNets returns the four ImageNet architectures of Table 2 at real
// dimensions.
func PaperScaleNets(w, u int) ([]*HWBench, error) {
	var out []*HWBench
	for _, name := range PaperScaleNames() {
		hb, err := PaperScaleNet(name, w, u)
		if err != nil {
			return nil, err
		}
		out = append(out, hb)
	}
	return out, nil
}
