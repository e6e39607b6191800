package nn

import "fmt"

// CloneNetwork deep-copies a network's layers and parameters so the
// composer can retrain a candidate without mutating the caller's baseline.
// Dropout layers keep their shared RNG (cloning a *rand.Rand would silently
// fork the stream); all parameter tensors are copied.
func CloneNetwork(n *Network) *Network {
	c := NewNetwork(n.Name)
	for _, l := range n.Layers {
		c.Add(cloneLayer(l))
	}
	return c
}

func cloneLayer(l Layer) Layer {
	switch t := l.(type) {
	case *Dense:
		d := &Dense{name: t.name, in: t.in, out: t.out, Act: t.Act, Skip: t.Skip}
		d.W = newParam(t.W.Name, t.W.Value.Clone())
		d.B = newParam(t.B.Name, t.B.Value.Clone())
		return d
	case *Conv2D:
		c := &Conv2D{name: t.name, Geom: t.Geom, OutC: t.OutC, Act: t.Act, Skip: t.Skip}
		c.W = newParam(t.W.Name, t.W.Value.Clone())
		c.B = newParam(t.B.Name, t.B.Value.Clone())
		return c
	case *Recurrent:
		r := &Recurrent{name: t.name, In: t.In, H: t.H, Steps: t.Steps, Act: t.Act}
		r.Wx = newParam(t.Wx.Name, t.Wx.Value.Clone())
		r.Wh = newParam(t.Wh.Name, t.Wh.Value.Clone())
		r.B = newParam(t.B.Name, t.B.Value.Clone())
		return r
	case *Pool2D:
		return &Pool2D{name: t.name, Kind: t.Kind, Geom: t.Geom}
	case *Dropout:
		return &Dropout{name: t.name, size: t.size, Rate: t.Rate, rng: t.rng}
	}
	panic(fmt.Sprintf("nn: cannot clone layer of type %T", l))
}
