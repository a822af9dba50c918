// Command perfbench is the repository's benchmark. It runs four
// workloads, each in one process, and prints their end-to-end metrics:
//
//   - scale-forward: a 100k-node scale-free internet drained through
//     the sharded simulator in fixed simulated slices;
//   - wire-transit: minimum-size TIP datagrams forwarded by one live
//     wire.Engine worker on loopback, driven by a closed-loop client;
//   - forward-mix: socket-free forwarding decisions by wire.Dataplane
//     over a seeded corpus of clean, source-routed, middlebox-hit and
//     malformed datagrams;
//   - mp-transfer: back-to-back 256 KiB striped transfers through
//     wire.MultipathSender into an engine-hosted MultipathReceiver.
//
// Usage:
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is one JSON object
// holding correct, attempted, failed and the end-to-end metrics of the
// named workload (setup_s, ops_per_s, op_p50_us, op_p90_us and
// peak_rss_mb). With --trace 1 the run is the traced pass: it measures
// the per-layer metrics of all four workloads, whichever --workload
// names, so every traced run reports the same metric set. The line
// before the result carries the host fingerprint and run details. See
// README.md for the workloads, their layers and the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run reports back to run.
type outcome struct {
	// attempted counts ops tried in the timed phase; failed counts
	// those whose output check failed, plus every other failed check.
	attempted, failed int64
	// setup holds one wall time per set-up repetition.
	setup []time.Duration
	// timed is the wall time of the timed phase and ops the ops it
	// completed without a failed check.
	timed time.Duration
	ops   int64
	// lat holds per-op latency samples in microseconds.
	lat *sampler
	// layers holds the traced per-layer metrics (trace mode only).
	layers map[string]metric
	// info holds run details for the line before the result.
	info map[string]any
}

// endToEnd derives the five end-to-end metrics from an outcome.
func (o *outcome) endToEnd() map[string]metric {
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":     {median(setup), "s"},
		"ops_per_s":   {o.lat.rate(o.ops, o.timed), "1/s"},
		"op_p50_us":   {o.lat.quantile(0.5), "us"},
		"op_p90_us":   {o.lat.quantile(0.9), "us"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// params sizes every workload; the tests shrink them.
type params struct {
	scale   scaleParams
	transit transitParams
	mix     mixParams
	mp      mpParams
}

func defaultParams(seed uint64, dur time.Duration) params {
	return params{
		scale:   defaultScaleParams(seed, dur),
		transit: defaultTransitParams(seed, dur),
		mix:     defaultMixParams(seed, dur),
		mp:      defaultMPParams(seed, dur),
	}
}

// workloads lists each workload's end-to-end run and traced run, in
// the order --workload all and the traced pass run them.
var workloads = []struct {
	name  string
	run   func(p params) (*outcome, error)
	trace func(p params) (*outcome, error)
}{
	{"scale-forward",
		func(p params) (*outcome, error) { return runScaleForward(p.scale) },
		func(p params) (*outcome, error) { return traceScaleForward(p.scale) }},
	{"wire-transit",
		func(p params) (*outcome, error) { return runWireTransit(p.transit) },
		func(p params) (*outcome, error) { return traceWireTransit(p.transit) }},
	{"forward-mix",
		func(p params) (*outcome, error) { return runForwardMix(p.mix) },
		func(p params) (*outcome, error) { return traceForwardMix(p.mix) }},
	{"mp-transfer",
		func(p params) (*outcome, error) { return runMPTransfer(p.mp) },
		func(p params) (*outcome, error) { return traceMPTransfer(p.mp) }},
}

func main() {
	workload := flag.String("workload", "all", "workload to run: scale-forward, wire-transit, forward-mix, mp-transfer or all")
	seed := flag.Uint64("seed", 42, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds (the traced pass does fixed work instead)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	known := workload == "all"
	for _, w := range workloads {
		known = known || w.name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	p := defaultParams(seed, time.Duration(seconds)*time.Second)
	out := bufio.NewWriter(os.Stdout)
	header := map[string]any{"workload": workload, "seed": seed, "trace": trace, "host": hostFingerprint()}

	if trace == 1 {
		steal := stealSeconds()
		res, traced, err := runTraced(p)
		if err != nil {
			return err
		}
		header["traced_end_to_end"] = traced
		header["host_steal_s"] = stealSeconds() - steal
		return emit(out, header, res)
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		if workload != "all" && workload != w.name {
			continue
		}
		if len(total.Metrics) > 0 {
			// Hand the last workload's memory back and restart the
			// high-water mark so this workload reports its own peak.
			debug.FreeOSMemory()
			resetPeakRSS()
		}
		steal := stealSeconds()
		o, err := w.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res := o.result(o.endToEnd())
		info := map[string]any{"workload": w.name, "latency_samples": o.lat.n, "rate_windows": len(o.lat.rates),
			"setup_repetitions": len(o.setup), "host_steal_s": stealSeconds() - steal}
		for k, v := range header {
			if k != "workload" {
				info[k] = v
			}
		}
		for k, v := range o.info {
			info[k] = v
		}
		if err := emit(out, info, res); err != nil || workload != "all" {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	return writeJSON(out, total)
}

// result is the outcome's result line with the given metrics.
func (o *outcome) result(metrics map[string]metric) result {
	failed := min(o.failed, o.attempted)
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: failed, Metrics: metrics}
}

// emit writes the detail line and then the result line.
func emit(out *bufio.Writer, info map[string]any, res result) error {
	if err := writeJSON(out, info); err != nil {
		return err
	}
	return writeJSON(out, res)
}

func writeJSON(out *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := out.Write(append(b, '\n')); err != nil {
		return err
	}
	return out.Flush()
}

// sampleCap is how many latency samples a sampler keeps.
const sampleCap = 1 << 20

// rateWindow is the length of the windows ops_per_s takes its median
// over.
const rateWindow = 100 * time.Millisecond

// sampler records the timed phase's completed ops. It keeps per-op
// latency samples in a fixed buffer, touched up front, so a run's
// memory does not depend on how many ops it completes: once the buffer
// fills it keeps every other sample and halves its sampling rate. It
// also keeps the completion rate of every rateWindow, so ops_per_s can
// be the median window rate: a stretch in which the host lends the
// virtual CPU elsewhere then costs a few windows, not the whole run.
type sampler struct {
	buf    []float32
	n      int // samples kept
	stride int // one op in stride is kept
	skip   int // ops to pass over before the next kept one

	rates   []float64
	winFrom time.Time
	winOps  int
}

// newSampler returns an empty sampler whose first rate window starts
// now: make it just before the timed phase.
func newSampler() *sampler {
	s := &sampler{buf: make([]float32, sampleCap), stride: 1, rates: make([]float64, 0, 1024)}
	for i := range s.buf {
		s.buf[i] = 0
	}
	s.winFrom = time.Now()
	return s
}

// record accounts n completed ops that each took x microseconds.
func (s *sampler) record(x float64, n int) {
	for i := 0; i < n; i++ {
		s.keep(x)
	}
	s.winOps += n
	if d := time.Since(s.winFrom); d >= rateWindow {
		s.rates = append(s.rates, float64(s.winOps)/d.Seconds())
		s.winFrom, s.winOps = s.winFrom.Add(d), 0
	}
}

func (s *sampler) keep(x float64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if s.n == len(s.buf) {
		for i := 0; i < s.n/2; i++ {
			s.buf[i] = s.buf[2*i]
		}
		s.n /= 2
		s.stride *= 2
	}
	s.buf[s.n] = float32(x)
	s.n++
	s.skip = s.stride - 1
}

// rate is the median window rate, or ops over the whole timed phase
// when it spanned too few windows.
func (s *sampler) rate(ops int64, timed time.Duration) float64 {
	if len(s.rates) < 5 {
		return float64(ops) / timed.Seconds()
	}
	return median(s.rates)
}

// quantile returns the q-quantile of the kept samples. It sorts them in
// place, so reading quantiles allocates nothing whatever the run's
// length.
func (s *sampler) quantile(q float64) float64 {
	xs := s.buf[:s.n]
	slices.Sort(xs)
	return interpolate(len(xs), q, func(i int) float64 { return float64(xs[i]) })
}

// setUp builds a rig n times, discarding all but the last build, and
// records each build's wall time; a full collection before each build
// starts every one from the same heap.
func setUp[R any](n int, build func() (R, error), discard func(R)) (R, []time.Duration, error) {
	var r R
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(r)
		}
		var zero R
		r = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = build(); err != nil {
			return r, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return r, times, nil
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs; it sorts a copy.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return interpolate(len(s), q, func(i int) float64 { return s[i] })
}

// interpolate returns the q-quantile of n sorted values read through at,
// interpolating linearly between order statistics; NaN for none.
func interpolate(n int, q float64, at func(int) float64) float64 {
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return at(n - 1)
	}
	return at(lo) + (pos-float64(lo))*(at(lo+1)-at(lo))
}

// allocRuns is how many measured calls an allocation count takes the
// median of.
const allocRuns = 5

// allocsPerOp counts heap allocations per op made by f, which performs
// ops operations, in the style of testing.AllocsPerRun: pinned to one P
// so the count does not depend on scheduling, after one warm-up call.
// The collector is held off meanwhile, so a sync.Pool the code under
// test uses keeps its objects; and the count is the median over runs
// calls, so a rare allocation made off the measured path (a runtime
// timer's goroutine, say) does not move it.
func allocsPerOp(runs, ops int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	counts := make([]float64, runs)
	var before, after runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		counts[i] = float64(after.Mallocs - before.Mallocs)
	}
	return median(counts) / float64(ops)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS restarts the VmHWM high-water mark (Linux clear_refs
// code 5), so a workload run after another reports its own peak. Where
// the kernel refuses, the peak stays cumulative for --workload all.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stealSeconds reads the time the hypervisor has kept this machine's
// virtual CPUs from running, summed over CPUs (zero on bare metal). The
// detail line reports it per run, so a run slowed by a busy host shows
// as such. It reads zero where the kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// hostFingerprint records what the numbers were measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
