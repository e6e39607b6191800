package composer

import (
	"fmt"

	"repro/internal/nn"
)

// Load-time validation of RAPIDNN2 artifacts. The loader is the trust
// boundary of the whole serving stack: everything downstream — the
// reinterpreted predictor, the hardware lowering, the NDCAM searches —
// indexes plan tables without re-checking them, so a corrupted artifact must
// be rejected here with a descriptive error, not discovered as a panic on a
// serving goroutine.

// expectedPlanKind maps a restored layer to the plan kind its composition
// must have produced.
func expectedPlanKind(l nn.Layer) (LayerKind, bool) {
	switch l.(type) {
	case *nn.Dense:
		return KindDense, true
	case *nn.Conv2D:
		return KindConv, true
	case *nn.Pool2D:
		return KindPool, true
	case *nn.Dropout:
		return KindDropout, true
	case *nn.Recurrent:
		return KindRecurrent, true
	}
	return 0, false
}

// sortedF32 reports whether s is non-decreasing — the invariant
// cluster.Assign's binary search and the NDCAM nearest-row semantics rely on.
func sortedF32(s []float32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// validatePlan checks one restored plan's internal consistency.
func validatePlan(p *LayerPlan) error {
	if p.Kind < KindDense || p.Kind > KindRecurrent {
		return fmt.Errorf("layer kind %d out of range", int(p.Kind))
	}
	if p.Neurons < 0 || p.Edges < 0 {
		return fmt.Errorf("negative geometry: neurons=%d edges=%d", p.Neurons, p.Edges)
	}
	if t := p.ActTable; t != nil {
		// A Y/Z length mismatch (or an empty Z) would otherwise load and
		// panic later inside ActTable.Eval / the NDCAM activation search on a
		// serving goroutine — exactly the corruption this check front-loads.
		if len(t.Z) == 0 {
			return fmt.Errorf("activation table %q has %d Y rows but an empty Z column", t.Name, len(t.Y))
		}
		if len(t.Y) != len(t.Z) {
			return fmt.Errorf("activation table %q has %d Y rows vs %d Z rows", t.Name, len(t.Y), len(t.Z))
		}
		if !sortedF32(t.Y) {
			return fmt.Errorf("activation table %q has an unsorted Y column", t.Name)
		}
	}
	if !p.IsCompute() {
		return nil
	}
	if p.Neurons <= 0 || p.Edges <= 0 {
		return fmt.Errorf("compute plan has non-positive geometry: neurons=%d edges=%d", p.Neurons, p.Edges)
	}
	if len(p.WeightCodebooks) == 0 {
		return fmt.Errorf("compute plan has no weight codebooks")
	}
	for b, cb := range p.WeightCodebooks {
		if len(cb) == 0 {
			return fmt.Errorf("weight codebook %d is empty", b)
		}
		if !sortedF32(cb) {
			return fmt.Errorf("weight codebook %d is unsorted", b)
		}
	}
	if len(p.InputCodebook) == 0 {
		return fmt.Errorf("compute plan has an empty input codebook")
	}
	if !sortedF32(p.InputCodebook) {
		return fmt.Errorf("input codebook is unsorted")
	}
	if len(p.ChannelCodebook) == 0 {
		return fmt.Errorf("compute plan has an empty channel→codebook map")
	}
	for ch, b := range p.ChannelCodebook {
		if b < 0 || b >= len(p.WeightCodebooks) {
			return fmt.Errorf("channel %d maps to codebook %d of %d", ch, b, len(p.WeightCodebooks))
		}
	}
	if len(p.Products) > 0 {
		// Pre-composed product tables (loaded plans carry them, freshly
		// composed ones do not) must cover every codebook group at the table
		// geometry the lowering will index.
		if len(p.Products) != len(p.WeightCodebooks) {
			return fmt.Errorf("%d product tables for %d codebook groups", len(p.Products), len(p.WeightCodebooks))
		}
		for g, tab := range p.Products {
			if want := len(p.WeightCodebooks[g]) * len(p.InputCodebook); len(tab) != want {
				return fmt.Errorf("product table %d holds %d entries, codebooks want %d", g, len(tab), want)
			}
		}
	}
	return nil
}

// validateComposed cross-checks a fully restored model: plan/layer counts,
// per-plan consistency, plan-kind-vs-layer-kind agreement, and canary
// geometry. The artifact reader runs it as its final gate.
func validateComposed(c *Composed) error {
	if len(c.Plans) != len(c.Net.Layers) {
		return fmt.Errorf("composer: %d plans for %d layers", len(c.Plans), len(c.Net.Layers))
	}
	for i, p := range c.Plans {
		l := c.Net.Layers[i]
		want, ok := expectedPlanKind(l)
		if !ok {
			return fmt.Errorf("composer: plan %d (%s): unplannable layer type %T", i, p.Name, l)
		}
		if p.Kind != want {
			return fmt.Errorf("composer: plan %d (%s) has kind %s but layer %s is %s",
				i, p.Name, p.Kind, l.Name(), want)
		}
		if err := validatePlan(p); err != nil {
			return fmt.Errorf("composer: plan %d (%s): %w", i, p.Name, err)
		}
	}
	for i, cn := range c.Canaries {
		if len(cn.Input) != c.Net.InSize() {
			return fmt.Errorf("composer: canary %d has %d features, network wants %d",
				i, len(cn.Input), c.Net.InSize())
		}
		if cn.Pred < 0 || cn.Pred >= c.Net.OutSize() {
			return fmt.Errorf("composer: canary %d predicts class %d of %d", i, cn.Pred, c.Net.OutSize())
		}
	}
	return nil
}
