package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		want    map[string]Metrics
		order   []string
		wantErr string
	}{
		{
			name: "benchmem line, GOMAXPROCS suffix stripped",
			in: "goos: linux\n" +
				"BenchmarkNeuronFire-2   \t  900000\t      1288 ns/op\t       0 B/op\t       0 allocs/op\n" +
				"PASS\nok  \trepro/internal/rna\t2.1s\n",
			want:  map[string]Metrics{"NeuronFire": {Iterations: 900000, NsPerOp: 1288}},
			order: []string{"NeuronFire"},
		},
		{
			name: "sub-benchmarks keep their path; GOMAXPROCS 1 prints no suffix",
			in: "BenchmarkHardwareInferBatch/workers=1 \t 100\t 455000 ns/op\t 3000 B/op\t 3 allocs/op\n" +
				"BenchmarkHardwareInferBatch/workers=2-2 \t 200\t 300000 ns/op\t 5000 B/op\t 7 allocs/op\n",
			want: map[string]Metrics{
				"HardwareInferBatch/workers=1": {Iterations: 100, NsPerOp: 455000, BytesPerOp: 3000, AllocsPerOp: 3},
				"HardwareInferBatch/workers=2": {Iterations: 200, NsPerOp: 300000, BytesPerOp: 5000, AllocsPerOp: 7},
			},
			order: []string{"HardwareInferBatch/workers=1", "HardwareInferBatch/workers=2"},
		},
		{
			name: "-count repeats merge to the fastest sample",
			in: "BenchmarkSearchAllocs-2 \t 1000\t 70 ns/op\n" +
				"BenchmarkSearchAllocs-2 \t 1000\t 60 ns/op\n" +
				"BenchmarkSearchAllocs-2 \t 1000\t 65 ns/op\n",
			want:  map[string]Metrics{"SearchAllocs": {Iterations: 1000, NsPerOp: 60}},
			order: []string{"SearchAllocs"},
		},
		{
			name:  "lines that are not results are skipped",
			in:    "BenchmarkBroken-2 \t notanumber\t 5 ns/op\nBenchmarkShort\nsome log line\n",
			want:  map[string]Metrics{},
			order: nil,
		},
		{
			name: "duplicate-name suffix is refused",
			in: "BenchmarkHardwareInferBatch/workers=2-2 \t 200\t 300000 ns/op\n" +
				"BenchmarkHardwareInferBatch/workers=2#01-2 \t 200\t 310000 ns/op\n",
			wantErr: "#01",
		},
		{
			name:    "duplicate-name suffix without a GOMAXPROCS suffix",
			in:      "BenchmarkHardwareInferBatch/workers=1#01 \t 100\t 455000 ns/op\n",
			wantErr: "share a name",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, order, err := parseBench(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parsed %v, want %v", got, tc.want)
			}
			for k, v := range tc.want {
				if got[k] != v {
					t.Fatalf("%s = %+v, want %+v", k, got[k], v)
				}
			}
			if strings.Join(order, ",") != strings.Join(tc.order, ",") {
				t.Fatalf("order %v, want %v", order, tc.order)
			}
		})
	}
}
