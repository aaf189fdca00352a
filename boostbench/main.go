// Command boostbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time in a single process, checks every output the
// program produces, and prints one JSON result object as its last line:
//
//	go run . --workload cold_asm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (set-up time,
// throughput, latency percentiles, allocation and live heap, and the
// simulated speedup). With --trace 1 it replays every operation layer by
// layer through the public functions of each module and reports where the
// time went; see README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload is given.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	log     io.Writer
}

// outcome is what a workload hands back: its counts and metrics, the
// first output check that failed, if any, and a note printed on standard
// output before the result line.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	checkErr          error
	note              string
}

var workloadFuncs = map[string]func(runConfig) (*outcome, error){
	"paper_eval": runPaperEval,
	"cold_asm":   runColdAsm,
	"hot_replay": runHotReplay,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("boostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper_eval, cold_asm or hot_replay")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "length of the timed run")
	trace := fs.Int("trace", 0, "1 = replay every op layer by layer and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadFuncs[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "boostbench: want --workload paper_eval|cold_asm|hot_replay, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// One P: the closed loop keeps one core busy at a time. With two Ps the
	// runtime spreads the client, the server and the GC over both vCPUs of
	// the 2-vCPU host, the hypervisor steals one of them, and throughput
	// measured that way halves and swings by 30% from run to run (see
	// README.md, "Host noise").
	runtime.GOMAXPROCS(1)
	out, err := fn(runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		log:     stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "boostbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "boostbench: %s: output check failed: %v\n", *name, out.checkErr)
	}
	if out.note != "" {
		fmt.Fprintf(stdout, "%s: %s\n", *name, out.note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "boostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// meter times the measured part of a run: wall time and Go heap bytes
// allocated, minus the stretches the benchmark spends on its own
// bookkeeping (making inputs, checking replies, reading the heap). stop
// freezes both at the end of the timed loop. marks holds the measured
// time at which each completed op ended.
type meter struct {
	start       time.Time
	allocStart  uint64
	pausedTime  time.Duration
	pausedAlloc uint64
	stopped     bool
	wall        time.Duration
	alloc       uint64
	marks       []time.Duration
}

func startMeter() *meter {
	return &meter{start: time.Now(), allocStart: allocBytes()}
}

// pause runs f outside the measurement.
func (m *meter) pause(f func()) {
	t0, a0 := time.Now(), allocBytes()
	f()
	m.pausedAlloc += allocBytes() - a0
	m.pausedTime += time.Since(t0)
}

// mark records that an op completed now.
func (m *meter) mark() { m.marks = append(m.marks, m.elapsed()) }

// windowRate is the median, over consecutive windows of n completed ops,
// of each window's ops per second. A window is long enough to hold a like
// mix of ops in every run, and the median follows the speed the host ran at for most
// of the run rather than its stalls and short fast or slow stretches
// (see README.md, "Host noise"). A partial last window is dropped.
func (m *meter) windowRate(n int) float64 {
	var rates []float64
	prev := time.Duration(0)
	for i := n - 1; i < len(m.marks); i += n {
		rates = append(rates, float64(n)/(m.marks[i]-prev).Seconds())
		prev = m.marks[i]
	}
	if len(rates) == 0 {
		return float64(len(m.marks)) / m.elapsed().Seconds()
	}
	return percentile(rates, 0.5)
}

func (m *meter) stop() {
	m.wall, m.alloc = m.elapsed(), m.allocated()
	m.stopped = true
}

func (m *meter) elapsed() time.Duration {
	if m.stopped {
		return m.wall
	}
	return time.Since(m.start) - m.pausedTime
}

func (m *meter) allocated() uint64 {
	if m.stopped {
		return m.alloc
	}
	return allocBytes() - m.allocStart - m.pausedAlloc
}

// allocBytes is the cumulative count of bytes allocated on the Go heap,
// by every goroutine of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLiveMiB forces collection and returns the live heap. Two cycles, so
// that sync.Pool victim caches are empty too.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

const mib = 1 << 20

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 11

// setupTimer times a workload's set-ups. The first runs before the timed
// run and is the one the run uses; the others are spread evenly over the
// timed run, outside its measurement, so that setup_s sees the same host
// speeds as the timed ops do (see README.md, "Host noise"). f makes one
// set-up and returns how long it took; each starts from a collected heap.
type setupTimer struct {
	every time.Duration
	times []float64
	f     func() (time.Duration, error)
}

func newSetupTimer(runFor time.Duration, f func() (time.Duration, error)) *setupTimer {
	return &setupTimer{every: runFor / setupReps, f: f}
}

func (s *setupTimer) run() error {
	runtime.GC()
	d, err := s.f()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	s.times = append(s.times, d.Seconds())
	return nil
}

// due runs the next set-up, outside the measurement, once the timed run
// has reached its share of the run.
func (s *setupTimer) due(m *meter) error {
	if len(s.times) >= setupReps || m.elapsed() < time.Duration(len(s.times))*s.every {
		return nil
	}
	var err error
	m.pause(func() {
		err = s.run()
		runtime.GC() // the set-up's garbage is not the next op's
	})
	return err
}

// finish runs the set-ups a short run did not reach.
func (s *setupTimer) finish() error {
	for len(s.times) < setupReps {
		if err := s.run(); err != nil {
			return err
		}
	}
	return nil
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd assembles the metrics every untraced run reports.
func endToEnd(setups []float64, lat []float64, ops int, opsPerS float64, m *meter, heapMiB, speedupGM float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {percentile(setups, 0.5), "s"},
		"ops_per_s":        {opsPerS, "1/s"},
		"p50_ms":           {percentile(lat, 0.5), "ms"},
		"p90_ms":           {percentile(lat, 0.9), "ms"},
		"alloc_mib_per_op": {float64(m.allocated()) / float64(ops) / mib, "MiB"},
		"heap_live_mib":    {heapMiB, "MiB"},
		"speedup_gm":       {speedupGM, "x"},
	}
}

// splitmix derives well-mixed 64-bit values from a seed and an index, so
// every input is a pure function of (--seed, position).
func splitmix(seed int64, i int64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
