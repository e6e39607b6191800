package nn

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// raceNet chains every layer kind whose forward computes: conv → max-pool →
// recurrent → dense.
func raceNet(rng *rand.Rand) *Network {
	conv := NewConv2D("cv", tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, ReLU{}, rng)
	c, h, w := conv.OutGeom()
	pool := NewPool2D("pl", MaxPool, tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 2, KW: 2, Stride: 2})
	return NewNetwork("race").
		Add(conv).
		Add(pool).
		Add(NewRecurrent("rnn", 6, 5, 3, Tanh{}, rng)).
		Add(NewDense("out", 5, 3, Identity{}, rng))
}

// Inference writes no layer state, so goroutines may share one network: two
// of them predicting at once must not race (run under -race) and must each
// get the serial answer.
func TestConcurrentPredictIsRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := raceNet(rng)
	x := tensor.New(4, net.InSize())
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()*2 - 1
	}
	want := net.Predict(x)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if got := net.Predict(x); !slices.Equal(got, want) {
					t.Errorf("concurrent Predict %v, serial %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Backward needs a training forward's cache; inference-only forwards leave
// none, so Backward must still refuse to run.
func TestBackwardAfterInferenceOnlyPanics(t *testing.T) {
	net := raceNet(rand.New(rand.NewSource(10)))
	for _, l := range net.Layers {
		x := tensor.New(2, l.InSize())
		l.Forward(x, false)
		l.Forward(x, false)
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "before Forward") {
					t.Errorf("%s: Backward after inference-only forwards: got %v, want the before-Forward panic", l.Name(), r)
				}
			}()
			l.Backward(tensor.New(2, l.OutSize()))
		}()
	}
}
