package rna

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
)

// hotNeuron builds the canonical hot-path fixture: one functional RNA with
// 16×16 codebooks, a sigmoid activation table, and a 64-edge neuron (its
// weight offsets and input indices) — the shape a mid-size dense layer fires
// millions of times under serving load.
func hotNeuron() (*FuncRNA, []int32, []int) {
	rng := rand.New(rand.NewSource(7))
	wcb := randomCodebook(rng, 16, 0.5)
	ucb := randomCodebook(rng, 16, 1.0)
	next := randomCodebook(rng, 16, 1.0)
	table := quant.BuildActTable(nn.Sigmoid{}, 64, -8, 8, quant.NonLinear)
	r := NewFuncRNAShared(devPtr(), wcb, ucb, table, next, productTable(wcb, ucb))
	wi := make([]int, 64)
	ui := make([]int, 64)
	for i := range wi {
		wi[i], ui[i] = rng.Intn(16), rng.Intn(16)
	}
	return r, offsets(r, wi), ui
}

// BenchmarkNeuronFire measures one end-to-end neuron evaluation — counting,
// shift-add expansion, NOR addition, NDCAM activation and encoding — on a
// caller-owned Scratch with the CAM cache off, and reports the edges it
// accumulates per second. This is the innermost unit of work of every
// hardware inference; its allocs/op govern GC pressure at serving scale.
func BenchmarkNeuronFire(b *testing.B) {
	r, wOff, ui := hotNeuron()
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire(r, wOff, ui, 0, s)
	}
	b.ReportMetric(float64(b.N*len(wOff))/b.Elapsed().Seconds(), "edges/s")
}
