// Command perfbench is the repository's host-time benchmark. It runs
// one workload of simulator cells (see README.md) through the public
// entry points, checks their simulated outputs, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the
// last line of standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paging --seed 1 --seconds 30 --trace 0
//
// Every cell runs in a fresh child process, one after another, so no
// cell inherits another's heap, leaked sim goroutines or peak RSS. A
// set is one pass over the workload's cells; sets repeat until
// --seconds have passed, and the metrics are medians over the sets.
// Host times are the CPU time of each cell's process, which runs Go
// code on one thread at a time (GOMAXPROCS 1), scaled to a reference
// host speed (hostprobe.go).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	minSets = 3 // sets of each kind a run measures at least
	// A run stops starting cells, and kills a running one, after this
	// long, so that it always ends within three minutes.
	runDeadline = 165 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A setResult is one pass over the workload's cells.
type setResult struct {
	Profiled bool
	Cells    []cellResult
}

func main() {
	wl := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 0, "seed for the cell order and the indirect workload's index data")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from profiled sets instead of end-to-end ones")
	child := flag.String("child", "", "run only this cell and print its result (used by the parent)")
	profile := flag.Bool("profile", false, "with -child: take a CPU profile and spans")
	flag.Parse()
	// The simulator runs one of its goroutines at a time. With a second
	// P, each handoff between them would wake a thread on another CPU
	// and leave threads spinning for work, and that CPU time depends on
	// how the OS and the host schedule the threads.
	runtime.GOMAXPROCS(1)

	if *child != "" {
		if err := runChild(*wl, *seed, *child, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := runParent(*wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runChild runs one cell from a collected heap and prints its result,
// with the process's allocation, GC cycles, leaked goroutines and, if
// profiled, CPU time per bucket, as one JSON line.
func runChild(wl string, seed uint64, name string, profile bool) error {
	cs, err := cells(wl, seed)
	if err != nil {
		return err
	}
	i := slices.IndexFunc(cs, func(c cell) bool { return c.name == name })
	if i < 0 {
		return fmt.Errorf("workload %s has no cell %q", wl, name)
	}
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	g0 := runtime.NumGoroutine()
	runtime.ReadMemStats(&m0)
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	r := runCell(cs[i], profile)
	if profile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	r.GoroutinesLeaked = runtime.NumGoroutine() - g0
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.GCCycles = m1.NumGC - m0.NumGC
	if r.RSSPeakMB, err = peakRSSMB(); err != nil {
		return err
	}
	if profile {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return err
		}
		r.Buckets = bucketWeights(samples)
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// peakRSSMB is the process's peak resident set, VmHWM. The rusage a
// parent gets for its child would not do: its maxrss counts the
// parent's pages, which the child shares until it execs.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runParent runs sets of cells, each cell in its own child process,
// until d has passed, alternating plain and profiled sets when traced;
// then it checks them and reduces them to metrics.
func runParent(wl string, seed uint64, d time.Duration, traced bool) (*result, error) {
	cs, err := cells(wl, seed)
	if err != nil {
		return nil, err
	}
	var digests map[string]string
	if wl == "trace" {
		if digests, err = loadDigests(digestsPath); err != nil {
			return nil, err
		}
		for _, c := range cs {
			if _, ok := digests[c.name]; !ok {
				return nil, fmt.Errorf("%s has no digest for cell %s", digestsPath, c.name)
			}
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// An interrupted run kills its running cell and prints no result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	start := time.Now()
	var sets []setResult
	for i := 0; ctx.Err() == nil; i++ {
		plain, profiled := countSets(sets)
		if time.Since(start) >= d && plain >= minSets && (!traced || profiled >= minSets) {
			break
		}
		s := setResult{Profiled: traced && i%2 == 1}
		before := hostProbe()
		for _, c := range cs {
			if ctx.Err() != nil {
				break
			}
			r := runCellProcess(ctx, exe, wl, seed, c.name, s.Profiled)
			after := hostProbe()
			r.ProbeS = (before + after) / 2
			before = after
			s.Cells = append(s.Cells, r)
		}
		sets = append(sets, s)
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		return nil, errors.New("interrupted")
	}

	attempted, failures := checkSets(wl, sets, digests)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	res := &result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures)}
	if traced {
		res.Metrics = layerMetrics(sets)
	} else {
		res.Metrics = endToEnd(sets)
	}
	printTable(os.Stdout, wl, res.Metrics)
	return res, nil
}

func countSets(sets []setResult) (plain, profiled int) {
	for _, s := range sets {
		if s.Profiled {
			profiled++
		} else {
			plain++
		}
	}
	return plain, profiled
}

// runCellProcess runs one cell in a child process and waits for it to
// exit; ctx's end kills the child. A child that fails makes the cell's
// result an error.
func runCellProcess(ctx context.Context, exe, wl string, seed uint64, name string, profile bool) cellResult {
	cmd := exec.CommandContext(ctx, exe, "-child", name, "-workload", wl,
		"-seed", strconv.FormatUint(seed, 10), "-profile="+strconv.FormatBool(profile))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return cellResult{Name: name, Err: fmt.Sprintf("child process: %v", err)}
	}
	var r cellResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return cellResult{Name: name, Err: fmt.Sprintf("child output: %v", err)}
	}
	return r
}

// cellMedians returns, for each cell, the median of f over its
// successful runs in the sets that match profiled. Reducing each cell
// to its median first keeps a transient slowdown of one cell in one
// set out of the figures.
func cellMedians(sets []setResult, profiled bool, f func(cellResult) float64) map[string]float64 {
	byCell := map[string][]float64{}
	for _, s := range sets {
		if s.Profiled != profiled {
			continue
		}
		for _, c := range s.Cells {
			if c.Err == "" {
				byCell[c.Name] = append(byCell[c.Name], f(c))
			}
		}
	}
	out := map[string]float64{}
	for name, xs := range byCell {
		out[name] = median(xs)
	}
	return out
}

// cellMedianSum is the sum over cells of cellMedians.
func cellMedianSum(sets []setResult, profiled bool, f func(cellResult) float64) float64 {
	var total float64
	for _, v := range cellMedians(sets, profiled, f) {
		total += v
	}
	return total
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

const mib = 1 << 20

// endToEnd reduces the plain sets to the end-to-end metrics.
func endToEnd(sets []setResult) map[string]metric {
	runS := cellMedianSum(sets, false, atRefSpeed(func(c cellResult) float64 { return c.RunS }))
	virtualS := cellMedianSum(sets, false, func(c cellResult) float64 { return c.VirtualS })
	vsecPerS := 0.0
	if runS > 0 {
		vsecPerS = virtualS / runS
	}
	return map[string]metric{
		"setup_s":     {cellMedianSum(sets, false, atRefSpeed(func(c cellResult) float64 { return c.SetupS })), "s"},
		"run_s":       {runS, "s"},
		"vsec_per_s":  {vsecPerS, "1/s"},
		"alloc_mb":    {cellMedianSum(sets, false, func(c cellResult) float64 { return float64(c.AllocBytes) / mib }), "MiB"},
		"rss_peak_mb": {meanValue(cellMedians(sets, false, func(c cellResult) float64 { return c.RSSPeakMB })), "MiB"},
	}
}

// meanValue is the mean of a map's values. The peak RSS is averaged
// over the cells' processes, not maximised: the largest cell's peak
// alone swings with where its collections fall.
func meanValue(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	var total float64
	for _, v := range m {
		total += v
	}
	return total / float64(len(m))
}

// sharedBuckets are the buckets the traced run reports a CPU share
// for; the rest fold into other.
var sharedBuckets = []string{
	"compiler", "lang", "workload", bucketMaps, "driver", "sim", "kernel", "vm", "mem",
	"pageout", "disk", "pdpm", "rt", "events", bucketFmt,
	bucketGC, bucketSched, bucketRuntime, bucketOther,
}

// layerMetrics reduces a traced run to the per-layer metrics: spans,
// run times and runtime counts are per-cell medians over the profiled
// (for untraced.run_s, the plain) sets, summed; CPU shares pool every
// profiled cell's samples; simulated counters come from each cell's
// first successful run, since checkSets requires every run to agree.
// Spans and run times are at the reference host speed, like the
// end-to-end ones, except the cpu. and wall. figures: those are as
// measured.
func layerMetrics(sets []setResult) map[string]metric {
	profiled := func(f func(cellResult) float64) float64 { return cellMedianSum(sets, true, f) }
	span := func(f func(cellResult) float64) float64 { return profiled(atRefSpeed(f)) }
	m := map[string]metric{
		"compiler.compile_s": {span(func(c cellResult) float64 { return c.CompileS }), "s"},
		"compiler.bind_s":    {span(func(c cellResult) float64 { return c.BindS }), "s"},
		"kernel.boot_s":      {span(func(c cellResult) float64 { return c.BootS }), "s"},
		"events.chrome_s":    {span(func(c cellResult) float64 { return c.ChromeS }), "s"},
		"events.log_s":       {span(func(c cellResult) float64 { return c.LogS }), "s"},
	}
	runS := func(c cellResult) float64 { return c.RunS }
	untraced := cellMedianSum(sets, false, atRefSpeed(runS))
	traced := span(runS)
	m["untraced.run_s"] = metric{untraced, "s"}
	m["traced.run_s"] = metric{traced, "s"}
	m["cpu.run_s"] = metric{cellMedianSum(sets, false, runS), "s"}
	m["wall.run_s"] = metric{cellMedianSum(sets, false, func(c cellResult) float64 { return c.WallRunS }), "s"}
	var probes []float64
	for _, s := range sets {
		for _, c := range s.Cells {
			probes = append(probes, c.ProbeS)
		}
	}
	m["host.probe_ms"] = metric{1000 * median(probes), "ms"}
	overhead := 0.0
	if untraced > 0 {
		overhead = 100 * (traced/untraced - 1)
	}
	m["tracing.overhead_pct"] = metric{overhead, "%"}
	m["gc.cycles"] = metric{profiled(func(c cellResult) float64 { return float64(c.GCCycles) }), "count"}
	m["sim.goroutines_leaked"] = metric{profiled(func(c cellResult) float64 { return float64(c.GoroutinesLeaked) }), "count"}

	weights := map[string]int64{}
	for _, s := range sets {
		for _, c := range s.Cells {
			for b, w := range c.Buckets {
				if !slices.Contains(sharedBuckets, b) {
					b = bucketOther
				}
				weights[b] += w
			}
		}
	}
	sh := shares(weights)
	for _, b := range sharedBuckets {
		m[shareMetric(b)] = metric{sh[b], "%"}
	}
	m["profile.cpu_s"] = metric{float64(sumWeights(weights)) / 1e9, "s"}

	counters := map[string]int64{}
	var chromeBytes int64
	seen := map[string]bool{}
	for _, s := range sets {
		for _, c := range s.Cells {
			if c.Err != "" || seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			for k, v := range c.Counters {
				counters[k] += v
			}
			chromeBytes += c.ChromeBytes
		}
	}
	for _, k := range []string{
		"vm.touches", "vm.hard_faults", "vm.soft_faults", "vm.rescue_faults",
		"vm.demotions", "vm.promotions", "vm.far_faults",
		"pageout.daemon_scanned", "pageout.releaser_freed", "mem.rescued_release",
		"disk.reads", "disk.writes", "pdpm.shared_refreshes", "kernel.memlock_contended",
		"rt.prefetch_calls", "rt.release_issued", "sim.clamps",
		"compiler.hints", "events.emitted", "events.dropped",
	} {
		m[k] = metric{float64(counters[k]), "count"}
	}
	m["pageout.steal_ratio"] = metric{ratio(counters["pageout.daemon_stolen"], counters["pageout.daemon_scanned"]), "ratio"}
	m["rt.filter_ratio"] = metric{ratio(counters["rt.prefetch_filtered"], counters["rt.prefetch_calls"]), "ratio"}
	m["events.chrome_mb"] = metric{float64(chromeBytes) / mib, "MiB"}
	return m
}

func sumWeights(w map[string]int64) int64 {
	var n int64
	for _, v := range w {
		n += v
	}
	return n
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// printTable prints the metrics one per line, for people; the JSON
// line follows it.
func printTable(w *os.File, wl string, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "%-10s %-28s %16.6g %s\n", wl, k, m[k].Value, m[k].Unit)
	}
}
