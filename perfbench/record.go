package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// record describes the conditions of one run; it is printed beside the
// result so two runs can be compared knowing what they ran on.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	// Load shape: open loop at OfferedRate rows/s over at most ConnCap
	// client connections, or a closed loop (OfferedRate 0) of one caller.
	Loop        string  `json:"loop"`
	OfferedRate float64 `json:"offered_rate"`
	ConnCap     int     `json:"conn_cap,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	// ExecutorWorkers is how many goroutines evaluate one batch: the
	// batcher's dispatcher alone on the software path, GOMAXPROCS workers
	// on the hardware paths. BatchSize is the serving MaxBatch or the
	// closed loop's batch.
	ExecutorWorkers int `json:"executor_workers"`
	BatchSize       int `json:"batch_size"`
	// Samples is the number of latency samples of the untraced phase.
	// TailMS is the lower quartile over TailWindows windows of each window's
	// TailPercentile, with at least TailBeyond samples beyond it in every
	// window (loadgen.tail_ms in a traced run). P95MS and P99MS are the whole
	// phase's, for reference.
	Samples        int     `json:"samples"`
	TailWindows    int     `json:"tail_windows"`
	TailPercentile float64 `json:"tail_percentile"`
	TailBeyond     int     `json:"tail_beyond"`
	TailMS         float64 `json:"tail_ms"`
	P95MS          float64 `json:"p95_ms"`
	P99MS          float64 `json:"p99_ms"`
	GCCycles       uint32  `json:"gc_cycles"`
	// StealPct is the share of the host's CPU time the hypervisor took
	// from this machine during the timed phase (/proc/stat), the main
	// source of noise on a shared virtual machine.
	StealPct float64   `json:"steal_pct"`
	SetupS   []float64 `json:"setup_s"`
	// Digest hashes the executors' answers, simulated activity and fault
	// counters over the request pool; equal digests mean bit-identical
	// executors.
	Digest      string             `json:"digest"`
	PoolRows    int                `json:"pool_rows"`
	FaultReport string             `json:"fault_report,omitempty"`
	Ladder      map[string]float64 `json:"ladder,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

func newRecord(o options, in *inputs) *record {
	r := &record{
		Workload:   o.workload.name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Digest:     in.Digest,
		PoolRows:   len(in.Pool),
	}
	if o.workload.faults {
		r.FaultReport = in.FaultReport.String()
	}
	return r
}

// cpuModel reads the processor name from /proc/cpuinfo ("" if unknown).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// usage is a snapshot of the process's resource counters and of the
// machine's stolen and total CPU time.
type usage struct {
	cpu          time.Duration // user + system CPU
	gc           uint32
	alloc        uint64 // cumulative heap bytes allocated
	steal, ticks uint64 // machine-wide clock ticks: stolen, all
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:    ms.NumGC,
		alloc: ms.TotalAlloc,
	}
	u.steal, u.ticks = hostTicks()
	return u
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, gc: u.gc - v.gc, alloc: u.alloc - v.alloc,
		steal: u.steal - v.steal, ticks: u.ticks - v.ticks}
}

// stealPct is the share of the machine's CPU time stolen over a phase.
func (u usage) stealPct() float64 {
	if u.ticks == 0 {
		return 0
	}
	return 100 * float64(u.steal) / float64(u.ticks)
}

// hostTicks reads the machine-wide stolen and total CPU ticks from the
// first line of /proc/stat (0, 0 where it is unavailable).
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set so far, in MB. The prepare
// step runs in a child process and does not count.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	// Linux reports Maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}

// latencies records the shape of a latency sample, in the order it was
// taken, and returns its median and tail.
func (r *record) latencies(lat []float64) (median, tailMS float64) {
	r.TailPercentile, tailMS, r.TailBeyond, r.TailWindows = windowedTail(lat)
	r.TailMS = min(tailMS, math.MaxFloat64)
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	r.P95MS, _ = percentile(sorted, 95)
	r.P99MS, _ = percentile(sorted, 99)
	// +Inf when failures reach them; JSON has no infinity.
	r.P95MS, r.P99MS = min(r.P95MS, math.MaxFloat64), min(r.P99MS, math.MaxFloat64)
	r.Samples = len(sorted)
	return p50(lat), tailMS
}
