// Command rapidnn-sim maps a workload onto the simulated RAPIDNN
// accelerator and prints its execution report: latency, pipelined
// throughput, energy, per-block breakdown, RNA occupancy and the §5.5
// efficiency metrics. Workloads are the six benchmark topologies at paper
// scale, or the real-dimension ImageNet architectures (AlexNet, VGGNet,
// GoogLeNet, ResNet).
//
// Usage:
//
//	rapidnn-sim [-net MNIST] [-w 64] [-u 64] [-chips 1] [-share 0]
//	rapidnn-sim -net MNIST -sweep 4,16,64 [-workers N]
//	rapidnn-sim -faults [-fault-rates 0,0.01,0.05] [-fault-model stuck]
//	            [-protection parity+spare] [-spare-rows 64] [-fault-seeds 3]
//	rapidnn-sim [-cpuprofile cpu.out] [-memprofile mem.out] ...
//
// The -faults mode runs the hardware-in-the-loop reliability study instead
// of the performance simulation: a small trained benchmark is lowered once,
// and seeded fault overlays are injected and cleared per sweep point, so the
// whole grid shares one composed network.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/accel"
	"repro/internal/accel/compile"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/rna"
)

// exportObs writes the run's metrics registry and/or stage trace to the
// -metrics / -trace-out files. Error paths that os.Exit lose them, same as
// the profiles.
func exportObs(metricsOut string, reg *obs.Registry, traceOut string, tr *obs.Tracer) {
	write := func(path string, fn func(f *os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
			os.Exit(1)
		}
	}
	if metricsOut != "" {
		write(metricsOut, func(f *os.File) error { return reg.WritePrometheus(f) })
		fmt.Printf("wrote metrics to %s\n", metricsOut)
	}
	if traceOut != "" {
		write(traceOut, func(f *os.File) error { return tr.WriteChromeTrace(f) })
		fmt.Printf("wrote stage trace (%d spans) to %s\n", tr.Len(), traceOut)
	}
}

func main() {
	name := flag.String("net", "MNIST", "workload (MNIST, ISOLET, HAR, CIFAR-10, CIFAR-100, ImageNet, AlexNet, VGGNet, GoogLeNet, ResNet)")
	w := flag.Int("w", 64, "weight codebook size")
	u := flag.Int("u", 64, "input codebook size")
	chips := flag.Int("chips", 1, "number of RAPIDNN chips")
	share := flag.Float64("share", 0, "RNA sharing fraction")
	mode := flag.String("mode", "", "run the compilation pass with this objective (latency or throughput) and report the optimized schedule")
	capacityChips := flag.String("capacity-chips", "1,2,4,8", "chip counts for the -mode capacity estimate")
	targetIPS := flag.Float64("target-ips", 0, "aggregate inference rate to size the fleet for in the -mode capacity estimate")
	stream := flag.Int("stream", 0, "also event-simulate this many pipelined inputs")
	trace := flag.String("trace", "", "write the event simulation as a Chrome trace to this file")
	sweep := flag.String("sweep", "", "comma-separated codebook sizes: simulate every (w,u) pair in parallel instead of a single run")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	faults := flag.Bool("faults", false, "run the seeded fault-injection accuracy study instead of the performance simulation")
	faultRates := flag.String("fault-rates", "0,0.001,0.01,0.05,0.2", "comma-separated fault rates for -faults")
	faultModel := flag.String("fault-model", "stuck", "fault model for -faults: stuck, transient, camrow, mixed")
	protection := flag.String("protection", "none", "protection for -faults: none, parity, spare, tmr, all, or a + combination")
	spareRows := flag.Int("spare-rows", 64, "per-crossbar spare-row budget when spare protection is enabled")
	faultSeeds := flag.Int("fault-seeds", 3, "independent fault-map seeds averaged per rate")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	metricsOut := flag.String("metrics", "", "write the run's report metrics in Prometheus text format to this file")
	traceOut := flag.String("trace-out", "", "record run stage spans (composition, simulation, sweeps) and write a Chrome trace to this file")
	flag.Parse()
	bench.Workers = *workers

	oreg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(1 << 16)
		// The harness globals thread the tracer through composer runs and
		// hardware lowerings without plumbing every call site.
		bench.Trace = tracer
	}
	if *metricsOut != "" || *traceOut != "" {
		// -metrics alone must still populate the registry (the -faults
		// path's counters flow through bench.Obs), same as rapidnn-bench.
		bench.Obs = oreg
	}
	defer exportObs(*metricsOut, oreg, *traceOut, tracer)

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
		os.Exit(1)
	}
	// Runs on every normal return, including the -faults and -sweep paths;
	// error paths that os.Exit lose the profiles, which is acceptable.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
			os.Exit(1)
		}
	}()

	if *faults {
		sp := tracer.Start("sim", "fault_study")
		runFaultStudy(*faultRates, *faultModel, *protection, *spareRows, *faultSeeds)
		sp.End()
		return
	}

	var hb *bench.HWBench
	for _, b := range bench.HardwareBenchmarks(*w, *u) {
		if strings.EqualFold(b.Name, *name) {
			hb = b
			break
		}
	}
	if hb == nil {
		if b, err := bench.PaperScaleNet(*name, *w, *u); err == nil {
			hb = b
		}
	}
	if hb == nil {
		valid := append(dataset.Names(), bench.PaperScaleNames()...)
		fmt.Fprintf(os.Stderr, "rapidnn-sim: unknown workload %q (valid: %s)\n",
			*name, strings.Join(valid, ", "))
		os.Exit(1)
	}

	cfg := accel.DefaultConfig()
	cfg.Chips = *chips
	cfg.ShareFraction = *share

	if *sweep != "" {
		var sizes []int
		for _, s := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "rapidnn-sim: bad -sweep size %q\n", s)
				os.Exit(1)
			}
			sizes = append(sizes, n)
		}
		type cell struct {
			w, u int
			rep  *accel.Report
		}
		sweepSp := tracer.Start("sim", "sweep")
		cells, err := bench.ParallelSweep(bench.SweepGrid([]*bench.HWBench{hb}, sizes, sizes),
			func(p bench.SweepPoint) (cell, error) {
				sp := tracer.Start("sim", "simulate:"+strconv.Itoa(p.W)+"x"+strconv.Itoa(p.U))
				rep, err := accel.Simulate(p.Bench.Name, p.Bench.Replan(p.W, p.U), p.Bench.MACs, cfg)
				sp.End()
				if err != nil {
					return cell{}, err
				}
				return cell{w: p.W, u: p.U, rep: rep}, nil
			})
		sweepSp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidnn-sim: sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("workload: %s  codebook sweep %v x %v\n\n", hb.Name, sizes, sizes)
		fmt.Printf("%4s %4s %14s %14s %12s %10s\n", "w", "u", "throughput", "energy/input", "EDP", "memory")
		for _, c := range cells {
			fmt.Printf("%4d %4d %11.0f/s %11.3f uJ %12.3g %7.1f MB\n",
				c.w, c.u, c.rep.ThroughputIPS, c.rep.EnergyPerInputJ*1e6,
				c.rep.EDP(), float64(c.rep.MemoryBytes)/1e6)
		}
		return
	}

	simSp := tracer.Start("sim", "simulate")
	rep, err := accel.Simulate(hb.Name, hb.Plans, hb.MACs, cfg)
	simSp.End()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
		os.Exit(1)
	}
	// Register the report's headline numbers so -metrics captures the run in
	// scrape-friendly form alongside the human-readable print-out.
	wl := obs.L("workload", rep.Network)
	oreg.Gauge("rapidnn_sim_throughput_inferences_per_second", "Pipelined simulated throughput.", wl).Set(rep.ThroughputIPS)
	oreg.Gauge("rapidnn_sim_latency_seconds", "Single-inference simulated latency.", wl).Set(rep.LatencySeconds)
	oreg.Gauge("rapidnn_sim_energy_per_input_joules", "Simulated energy per inference.", wl).Set(rep.EnergyPerInputJ)
	oreg.Gauge("rapidnn_sim_area_mm2", "Accelerator area.", wl).Set(rep.AreaMM2)
	oreg.Gauge("rapidnn_sim_peak_power_watts", "Simulated peak power.", wl).Set(rep.PeakPowerW)
	oreg.Gauge("rapidnn_sim_table_memory_bytes", "Codebook and table memory footprint.", wl).Set(float64(rep.MemoryBytes))
	oreg.Gauge("rapidnn_sim_rna_blocks_required", "RNA blocks the workload needs.", wl).Set(float64(rep.RNAsRequired))
	oreg.Gauge("rapidnn_sim_edp_joule_seconds", "Energy-delay product.", wl).Set(rep.EDP())

	fmt.Printf("workload: %s  (%.2f GMACs/inference)\n", rep.Network, float64(rep.MACs)/1e9)
	fmt.Printf("deployment: %d chip(s), w=%d u=%d, sharing %.0f%%\n\n", rep.Chips, *w, *u, 100**share)
	fmt.Printf("RNA blocks:   %d required / %d available (multiplex %.2fx)\n",
		rep.RNAsRequired, rep.RNAsAvailable, rep.Multiplex)
	fmt.Printf("latency:      %d cycles = %.3f us\n", rep.LatencyCycles, rep.LatencySeconds*1e6)
	fmt.Printf("throughput:   %.0f inferences/s (pipeline interval %d cycles)\n",
		rep.ThroughputIPS, rep.PipelineCycles)
	fmt.Printf("energy/input: %.3f uJ (reconfiguration %.3f uJ)\n",
		rep.EnergyPerInputJ*1e6, rep.ReconfigEnergyJ*1e6)
	fmt.Printf("area:         %.1f mm^2 (utilized %.1f mm^2)\n", rep.AreaMM2, rep.UtilizedAreaMM2)
	fmt.Printf("peak power:   %.1f W\n", rep.PeakPowerW)
	fmt.Printf("table memory: %.1f MB\n", float64(rep.MemoryBytes)/1e6)
	fmt.Printf("efficiency:   %.0f GOPS, %.1f GOPS/mm^2, %.1f GOPS/W, EDP %.3g Js\n\n",
		rep.GOPS, rep.GOPSPerMM2, rep.GOPSPerW, rep.EDP())

	tot := rep.Breakdown.Total()
	fmt.Println("energy breakdown:")
	for _, b := range rna.Blocks() {
		if rep.Breakdown[b].EnergyJ == 0 {
			continue
		}
		fmt.Printf("  %-15s %5.1f%%\n", b, 100*rep.Breakdown[b].EnergyJ/tot.EnergyJ)
	}

	fmt.Println("\nper-layer stages:")
	for _, l := range rep.Layers {
		fmt.Printf("  %-6s %-5s neurons=%-8d blocks=%-8d cycles=%d\n",
			l.Name, l.Kind, l.Neurons, l.RNABlocks, l.Cycles)
	}

	if *stream > 0 {
		pipe, err := accel.SimulateStages(accel.DefaultStages(hb.Plans, cfg), *stream, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nstreaming %d inputs: fill %d cycles, steady interval %d cycles, makespan %d cycles\n",
			*stream, pipe.FirstLatency, pipe.SteadyInterval, pipe.MakespanCycles)
		if *trace != "" {
			f, err := os.Create(*trace)
			if err == nil {
				err = pipe.WriteChromeTrace(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "rapidnn-sim: trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote Chrome trace to %s\n", *trace)
		}
	}

	if placement, err := accel.Place(hb.Plans, cfg); err == nil {
		fmt.Printf("\ntile placement (%d tiles used):\n", placement.TilesUsed)
		for _, lp := range placement.Layers {
			fmt.Printf("  %-6s tiles %d..%d\n", lp.Name, lp.FirstTile, lp.FirstTile+lp.Tiles-1)
		}
		fmt.Printf("  activation traffic: %d intra-tile bits, %d inter-tile bits, %.2f nJ/input\n",
			placement.IntraTileBits, placement.InterTileBits, placement.BufferEnergyJ*1e9)
	} else {
		// The multiplexed regime is a legitimate, reportable state — the
		// placement error says why no static layout exists, never swallow it.
		fmt.Printf("\nno static tile placement: %v\n", err)
	}

	if *mode != "" {
		runCompilePass(hb, cfg, *mode, *capacityChips, *targetIPS, oreg, tracer)
	}
}

// runCompilePass executes the -mode compilation pass and prints the
// optimized schedule: placement, replication vector, initiation interval and
// energy deltas versus the uncompiled mapping, plus the schedule-driven
// capacity estimate.
func runCompilePass(hb *bench.HWBench, cfg accel.Config, modeStr, capacityCSV string, targetIPS float64, oreg *obs.Registry, tracer *obs.Tracer) {
	m, err := compile.ParseMode(modeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
		os.Exit(1)
	}
	var chipCounts []int
	for _, s := range strings.Split(capacityCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "rapidnn-sim: bad -capacity-chips entry %q\n", s)
			os.Exit(1)
		}
		chipCounts = append(chipCounts, n)
	}

	sp := tracer.Start("sim", "compile:"+modeStr)
	sched, err := compile.Compile(hb.Name, hb.Plans, cfg, compile.Options{Mode: m})
	sp.End()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: compile: %v\n", err)
		os.Exit(1)
	}

	c, b := sched.Compiled, sched.Baseline
	fmt.Printf("\ncompilation pass (%s objective):\n", sched.Mode)
	fmt.Printf("  II:          %d -> %d cycles (throughput %.0f -> %.0f inferences/s)\n",
		b.II, c.II, b.ThroughputIPS, c.ThroughputIPS)
	fmt.Printf("  latency:     %d -> %d cycles\n", b.LatencyCycles, c.LatencyCycles)
	deltaPct := 0.0
	if b.EnergyPerInputJ > 0 {
		deltaPct = 100 * (c.EnergyPerInputJ - b.EnergyPerInputJ) / b.EnergyPerInputJ
	}
	fmt.Printf("  energy:      %.3f -> %.3f uJ/input (%+.1f%%)\n",
		b.EnergyPerInputJ*1e6, c.EnergyPerInputJ*1e6, deltaPct)
	fmt.Printf("  blocks:      %d -> %d (multiplex %.2fx -> %.2fx)\n",
		b.BlocksRequired, c.BlocksRequired, b.Multiplex, c.Multiplex)
	switch {
	case m == compile.Throughput && c.II < b.II:
		fmt.Printf("  improvement: II %d -> %d cycles (%.2fx throughput)\n",
			b.II, c.II, float64(b.II)/float64(c.II))
	case m == compile.Latency && c.LatencyCycles < b.LatencyCycles:
		fmt.Printf("  improvement: latency %d -> %d cycles\n", b.LatencyCycles, c.LatencyCycles)
	default:
		fmt.Printf("  improvement: none — the uncompiled mapping is already optimal under the %s objective\n", sched.Mode)
	}
	fmt.Printf("  replication vector: %v\n", sched.ReplicaVector())
	fmt.Println("  stages:")
	for _, st := range sched.Stages {
		loc := "multiplexed (no static placement)"
		if st.FirstTile >= 0 {
			loc = fmt.Sprintf("tiles %d..%d", st.FirstTile, st.FirstTile+st.Tiles-1)
		}
		shared := ""
		if st.Shared {
			shared = " shared"
		}
		fmt.Printf("    %-6s %-5s R=%-2d blocks=%-6d sub-stage %d cycles  %s%s\n",
			st.Name, st.Kind, st.Replicas, st.Blocks, st.SubCycles, loc, shared)
	}
	if sched.PlacementErr != "" {
		fmt.Printf("  placement: %s\n", sched.PlacementErr)
	}
	fmt.Printf("  event-sim check: steady interval %d cycles, first latency %d cycles (matches analytic model)\n",
		sched.EventSteadyInterval, sched.EventFirstLatency)

	wl := obs.L("workload", hb.Name)
	oreg.Gauge("rapidnn_sim_compiled_ii_cycles", "Compiled schedule initiation interval.", wl, obs.L("mode", sched.Mode.String())).Set(float64(c.II))
	oreg.Gauge("rapidnn_sim_compiled_throughput_inferences_per_second", "Compiled schedule throughput.", wl, obs.L("mode", sched.Mode.String())).Set(c.ThroughputIPS)

	capSp := tracer.Start("sim", "capacity")
	plan, err := bench.FleetSize(hb, cfg, compile.Options{Mode: m}, chipCounts, targetIPS)
	capSp.End()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: capacity: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%s", plan)
}

// runFaultStudy executes the -faults mode: one small trained benchmark,
// lowered once, swept over the requested fault rates with every fault map
// injected as a revertible overlay.
func runFaultStudy(ratesCSV, model, protection string, spareRows, seeds int) {
	var rates []float64
	for _, s := range strings.Split(ratesCSV, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || r < 0 || r > 1 {
			fmt.Fprintf(os.Stderr, "rapidnn-sim: bad -fault-rates entry %q (want numbers in [0,1])\n", s)
			os.Exit(1)
		}
		rates = append(rates, r)
	}
	if seeds < 1 {
		fmt.Fprintln(os.Stderr, "rapidnn-sim: -fault-seeds must be at least 1")
		os.Exit(1)
	}
	prot, err := fault.ParseProtection(protection, spareRows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
		os.Exit(1)
	}
	// Validate the model name before paying for training.
	if _, err := fault.ForModel(model, 0, 0); err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("training the reliability-study benchmark (quick suite)...")
	r, err := bench.FaultStudy(bench.NewSuite(true), bench.FaultStudyConfig{
		Rates:      rates,
		Seeds:      bench.DefaultFaultSeeds(seeds),
		Model:      model,
		Protection: prot,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidnn-sim: faults: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(r)
}
