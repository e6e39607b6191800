package composer

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
)

// This file maps network layers to and from their RAPIDNN2 form (flat.go):
// a flatLayer header of shapes and names plus the layer's weight arrays.
// Together with the layer plans, that is everything the accelerator needs at
// configuration time (§3.3), so a deployment runs the composer once offline
// and ships the artifact, exactly as the paper amortizes the composer across
// "all future executions" (§5.2).

// layerWeights are a layer's parameter arrays; SaveFlat writes them as
// sections in this field order.
type layerWeights struct {
	W, B, Wx, Wh []float32
}

// snapshotLayer returns the layer's header (with no section references yet)
// and its weight arrays, which alias the layer's parameters.
func snapshotLayer(l nn.Layer) (fl flatLayer, w layerWeights, err error) {
	switch t := l.(type) {
	case *nn.Dense:
		fl = flatLayer{Kind: "dense", Name: t.Name(), Act: t.Act.Name(), Skip: t.Skip, In: t.InSize(), Out: t.OutSize()}
		w = layerWeights{W: t.W.Value.Data(), B: t.B.Value.Data()}
	case *nn.Conv2D:
		fl = flatLayer{Kind: "conv", Name: t.Name(), Act: t.Act.Name(), Skip: t.Skip, Geom: t.Geom, OutC: t.OutC}
		w = layerWeights{W: t.W.Value.Data(), B: t.B.Value.Data()}
	case *nn.Pool2D:
		fl = flatLayer{Kind: "pool", Name: t.Name(), Geom: t.Geom, PoolKind: int(t.Kind)}
	case *nn.Dropout:
		fl = flatLayer{Kind: "dropout", Name: t.Name(), Size: t.InSize(), Rate: t.Rate}
	case *nn.Recurrent:
		fl = flatLayer{Kind: "recurrent", Name: t.Name(), Act: t.Act.Name(), In: t.In, Hidden: t.H, Steps: t.Steps}
		w = layerWeights{Wx: t.Wx.Value.Data(), Wh: t.Wh.Value.Data(), B: t.B.Value.Data()}
	default:
		err = fmt.Errorf("composer: cannot serialize layer %T", l)
	}
	return fl, w, err
}

// fillParam copies a loaded weight slice into a freshly constructed
// parameter tensor, rejecting artifacts whose slice length disagrees with
// the layer geometry — the signature of a corrupted header whose sections
// still checksum.
func fillParam(dst []float32, src []float32, param string) error {
	if len(src) != len(dst) {
		return fmt.Errorf("%s tensor has %d values, layer geometry wants %d", param, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

func restoreLayer(ls flatLayer, w layerWeights) (nn.Layer, error) {
	act := nn.ActivationByName(ls.Act)
	if act == nil && (ls.Kind == "dense" || ls.Kind == "conv" || ls.Kind == "recurrent") {
		return nil, fmt.Errorf("unknown activation %q", ls.Act)
	}
	switch ls.Kind {
	case "dense":
		if ls.In <= 0 || ls.Out <= 0 {
			return nil, fmt.Errorf("dense layer has non-positive shape %dx%d", ls.In, ls.Out)
		}
		d := nn.NewDense(ls.Name, ls.In, ls.Out, act, nil)
		d.Skip = ls.Skip
		if err := fillParam(d.W.Value.Data(), w.W, "weight"); err != nil {
			return nil, err
		}
		if err := fillParam(d.B.Value.Data(), w.B, "bias"); err != nil {
			return nil, err
		}
		return d, nil
	case "conv":
		if ls.OutC <= 0 || ls.Geom.InC <= 0 || ls.Geom.KH <= 0 || ls.Geom.KW <= 0 || ls.Geom.Stride <= 0 {
			return nil, fmt.Errorf("conv layer has invalid geometry %+v outC=%d", ls.Geom, ls.OutC)
		}
		c := nn.NewConv2D(ls.Name, ls.Geom, ls.OutC, act, nil)
		c.Skip = ls.Skip
		if err := fillParam(c.W.Value.Data(), w.W, "weight"); err != nil {
			return nil, err
		}
		if err := fillParam(c.B.Value.Data(), w.B, "bias"); err != nil {
			return nil, err
		}
		return c, nil
	case "pool":
		if ls.Geom.InC <= 0 || ls.Geom.KH <= 0 || ls.Geom.KW <= 0 || ls.Geom.Stride <= 0 {
			return nil, fmt.Errorf("pool layer has invalid geometry %+v", ls.Geom)
		}
		return nn.NewPool2D(ls.Name, nn.PoolKind(ls.PoolKind), ls.Geom), nil
	case "dropout":
		if ls.Size <= 0 {
			return nil, fmt.Errorf("dropout layer has non-positive size %d", ls.Size)
		}
		// Weighted layers above take a nil rng: their parameters are
		// overwritten from the artifact, and skipping the random init is
		// most of a cold start's CPU on large models. Dropout draws masks at
		// training time, so it alone gets a real source.
		return nn.NewDropout(ls.Name, ls.Size, ls.Rate, rand.New(rand.NewSource(1))), nil
	case "recurrent":
		if ls.In <= 0 || ls.Hidden <= 0 || ls.Steps <= 0 {
			return nil, fmt.Errorf("recurrent layer has non-positive shape in=%d h=%d steps=%d", ls.In, ls.Hidden, ls.Steps)
		}
		r := nn.NewRecurrent(ls.Name, ls.In, ls.Hidden, ls.Steps, act, nil)
		if err := fillParam(r.Wx.Value.Data(), w.Wx, "input-weight"); err != nil {
			return nil, err
		}
		if err := fillParam(r.Wh.Value.Data(), w.Wh, "hidden-weight"); err != nil {
			return nil, err
		}
		if err := fillParam(r.B.Value.Data(), w.B, "bias"); err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown layer kind %q", ls.Kind)
}
