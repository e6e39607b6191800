package counting

import "testing"

// Weight is the closed form the neuron hot path prices the adder with: it
// must count exactly the terms Decompose builds, for every count a neuron
// can produce and well beyond.
func TestWeightMatchesDecompose(t *testing.T) {
	for c := 0; c < 1<<20; c++ {
		if got, want := Weight(c), len(Decompose(c)); got != want {
			t.Fatalf("Weight(%d) = %d, Decompose has %d terms", c, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative count did not panic")
		}
	}()
	Weight(-1)
}

// The neuron hot path calls Weight once per distinct product, so it must not
// allocate — len(Decompose(c)) would, once per call.
func TestCountingHotPathZeroAllocs(t *testing.T) {
	n := 0
	if allocs := testing.AllocsPerRun(200, func() {
		n += Weight(1023)
	}); allocs != 0 {
		t.Fatalf("Weight allocates %v per op, want 0", allocs)
	}
}
