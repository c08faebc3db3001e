package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"syscall"
	"time"

	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/events"
	"memhogs/internal/kernel"
	"memhogs/internal/rt"
	"memhogs/internal/sim"
	"memhogs/internal/workload"
)

// The benchmark's workloads, in the order usage lists them.
var workloadNames = []string{"paging", "indirect", "trace"}

var modes = []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeBuffered}

// traceCapacity is memhogs.Trace's flight-recorder ring size; the trace
// cells must use it for their Chrome bytes to match the pinned digests.
const traceCapacity = 1 << 18

// A cell is one benchmark in one version on one machine.
type cell struct {
	name   string // "<bench>/<version>[+far]", the trace digests' key
	spec   *workload.Spec
	cfg    driver.RunConfig
	record bool // run under the flight recorder and export Log + Chrome
}

// cells returns the workload's cells in an order drawn from seed. The
// seed also feeds the indirect workload's index data (seededSpec).
func cells(name string, seed uint64) ([]cell, error) {
	var cs []cell
	switch name {
	case "paging":
		// The paper's machine and data sizes (Table 1, Table 2).
		for _, bench := range []string{"matvec", "embar", "mgrid", "fftpde"} {
			spec, err := workload.ByName(bench)
			if err != nil {
				return nil, err
			}
			for _, m := range modes {
				cs = append(cs, cell{name: bench + "/" + m.String(), spec: spec, cfg: driver.DefaultRunConfig(m)})
			}
		}
	case "indirect":
		for _, bench := range []string{"buk", "cgm"} {
			spec, err := workload.ScaledByName(bench)
			if err != nil {
				return nil, err
			}
			spec = seededSpec(spec, seed)
			for _, m := range modes {
				cs = append(cs, cell{name: bench + "/" + m.String(), spec: spec, cfg: driver.TestRunConfig(m)})
			}
		}
	case "trace":
		// `memhog -quick trace`: every benchmark on the quick machine,
		// plus fftpde on the same page budget split 3:1 DRAM:far.
		for _, spec := range workload.AllScaled() {
			for _, m := range modes {
				cs = append(cs, traceCell(spec, m, quickKernel(4, 0), ""))
			}
		}
		spec, err := workload.ScaledByName("fftpde")
		if err != nil {
			return nil, err
		}
		for _, m := range modes {
			cs = append(cs, traceCell(spec, m, quickKernel(3, 1), "+far"))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	r := rand.New(rand.NewPCG(seed, 0x6d656d686f6773))
	r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs, nil
}

func traceCell(spec *workload.Spec, m rt.Mode, k kernel.Config, suffix string) cell {
	cfg := driver.DefaultRunConfig(m)
	cfg.Kernel = k
	return cell{name: spec.Name + "/" + m.String() + suffix, spec: spec, cfg: cfg, record: true}
}

// quickKernel is the kernel configuration memhogs.TestMachine() builds,
// with memMB of DRAM and farMB of far memory.
func quickKernel(memMB, farMB int) kernel.Config {
	cfg := kernel.TestConfig()
	cfg.NCPU = 4
	cfg.PageSize = 16 << 10
	cfg.UserMemPages = memMB << 20 / cfg.PageSize
	cfg.Disk.NumDisks = 2
	cfg.Disk.NumAdapters = 1
	if farMB > 0 {
		cfg.Far.Pages = farMB << 20 / cfg.PageSize
	}
	return cfg
}

// seededSpec returns spec with its index-array generators reading the
// value stream from an offset drawn from seed. Seed 0 is the offset 0,
// so it reproduces the spec's own data exactly. The offset is a
// multiple of 32, cgm's row length, so each element keeps its position
// within its row.
func seededSpec(spec *workload.Spec, seed uint64) *workload.Spec {
	if spec.DataGens == nil {
		return spec
	}
	var off int64
	if seed != 0 {
		off = int64(sim.Hash64(seed)%(1<<30)+1) * 32
	}
	s := *spec
	s.DataGens = func(p map[string]int64) map[string]func(int64) int64 {
		gens := spec.DataGens(p)
		for name, fn := range gens {
			gens[name] = func(i int64) int64 { return fn(i + off) }
		}
		return gens
	}
	return &s
}

// cellResult is what one cell run reports: host times, the simulated
// counters the checks and the traced run read, a fingerprint of the
// whole simulated result, and what its process measured of itself.
// Host times are CPU time of the cell's process (cpuSeconds) except
// WallRunS; ProbeS is the parent's hostProbe time around the cell.
type cellResult struct {
	Name string `json:"name"`
	Err  string `json:"err,omitempty"`

	SetupS   float64 `json:"setup_s"`    // compile + bind + boot
	RunS     float64 `json:"run_s"`      // simulation (+ export on trace cells)
	WallRunS float64 `json:"wall_run_s"` // RunS's interval on the wall clock
	// Spans, taken only on traced runs.
	CompileS float64 `json:"compile_s,omitempty"`
	BindS    float64 `json:"bind_s,omitempty"`
	BootS    float64 `json:"boot_s,omitempty"`
	ChromeS  float64 `json:"chrome_s,omitempty"`
	LogS     float64 `json:"log_s,omitempty"`

	VirtualS    float64          `json:"virtual_s"`
	Done        bool             `json:"done"`
	Fingerprint string           `json:"fingerprint"`
	ChromeSHA   string           `json:"chrome_sha,omitempty"`
	ChromeBytes int64            `json:"chrome_bytes,omitempty"`
	Counters    map[string]int64 `json:"counters"`

	// Filled by the cell's process (runChild) and, for ProbeS, by the
	// parent.
	AllocBytes       uint64           `json:"alloc_bytes"`
	GCCycles         uint32           `json:"gc_cycles"`
	GoroutinesLeaked int              `json:"goroutines_leaked"`
	Buckets          map[string]int64 `json:"buckets,omitempty"` // CPU ns per bucket (profiled runs)
	RSSPeakMB        float64          `json:"rss_peak_mb"`
	ProbeS           float64          `json:"-"`
}

// runCell compiles, binds, boots and runs one cell. With spans set it
// also times Compile, Bind and boot separately; the extra Bind that
// takes is outside both SetupS and RunS.
func runCell(c cell, spans bool) cellResult {
	out := cellResult{Name: c.name}
	cfg := c.cfg
	params := c.spec.Params
	tgt := compiler.DefaultTarget(cfg.Kernel.PageSize, cfg.Kernel.UserMemPages)
	tgt.Prefetch = cfg.Mode.UsesPrefetch()
	tgt.Release = cfg.Mode.UsesRelease()

	t0 := cpuSeconds()
	comp, err := compiler.Compile(c.spec.Program(params), tgt)
	compileS := cpuSeconds() - t0
	if err != nil {
		out.Err = fmt.Sprintf("compile: %v", err)
		return out
	}
	if spans {
		out.CompileS = compileS
		tb := cpuSeconds()
		if _, err := comp.Bind(params); err != nil {
			out.Err = fmt.Sprintf("bind: %v", err)
			return out
		}
		out.BindS = cpuSeconds() - tb
	}

	var booted float64
	var bootedWall time.Time
	var rec *events.Recorder
	cfg.Params = params
	cfg.OnSystem = func(sys *kernel.System) {
		booted, bootedWall = cpuSeconds(), time.Now()
		if c.record {
			rec = events.New(sys.Sim, traceCapacity)
			sys.SetEvents(rec)
		}
	}
	start := cpuSeconds()
	res, err := driver.RunCompiled(c.spec.Name, comp, cfg)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	// The recorder-off cells time the exporters on their nil recorder:
	// the off path, which must stay free.
	tl, tlWall := cpuSeconds(), time.Now()
	rec.Log()
	tc := cpuSeconds()
	chrome := rec.Chrome()
	end, endWall := cpuSeconds(), time.Now()

	out.SetupS = compileS + booted - start
	if c.record {
		out.RunS, out.WallRunS = end-booted, endWall.Sub(bootedWall).Seconds()
	} else {
		out.RunS, out.WallRunS = tl-booted, tlWall.Sub(bootedWall).Seconds()
	}
	if spans {
		out.BootS = max(0, booted-start-out.BindS)
		out.LogS = tc - tl
		out.ChromeS = end - tc
	}
	out.VirtualS = res.Elapsed.Seconds()
	out.Done = res.Done
	out.Counters = resultCounters(res)
	out.Counters["compiler.hints"] = int64(len(comp.Hints()))
	out.Counters["events.emitted"] = sumCounts(rec.Counts())
	out.Counters["events.dropped"] = rec.Dropped()
	fp := sha256.Sum256(fmt.Appendf(nil, "%+v", *res))
	out.Fingerprint = hex.EncodeToString(fp[:8])
	if c.record {
		sum := sha256.Sum256(chrome)
		out.ChromeSHA = hex.EncodeToString(sum[:])
		out.ChromeBytes = int64(len(chrome))
	}
	return out
}

// cpuSeconds is the CPU time, user and system, that the process has
// used so far on all its threads. Unlike wall time it leaves out the
// time the process waited for a CPU that another process or the
// hypervisor had, which on a shared host swings wall times by tens of
// percent between runs of the same cells.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func sumCounts(c events.Counts) int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// resultCounters reads the exact counters the traced run reports from
// one driver.Result.
func resultCounters(r *driver.Result) map[string]int64 {
	return map[string]int64{
		"vm.touches":               r.VM.Touches,
		"vm.hard_faults":           r.VM.HardFaults,
		"vm.soft_faults":           r.VM.SoftFaults,
		"vm.rescue_faults":         r.VM.RescueFaults,
		"vm.demotions":             r.VM.Demotions,
		"vm.promotions":            r.VM.Promotions,
		"vm.far_faults":            r.VM.FarFaults,
		"pageout.daemon_scanned":   r.Daemon.Scanned,
		"pageout.daemon_stolen":    r.Daemon.Stolen,
		"pageout.releaser_freed":   r.Releaser.Freed,
		"mem.rescued_release":      r.Phys.RescuedRelease,
		"disk.reads":               r.Disk.Reads,
		"disk.writes":              r.Disk.Writes,
		"pdpm.shared_refreshes":    r.PM.SharedRefreshes,
		"kernel.memlock_contended": r.MemlockContended,
		"rt.prefetch_calls":        r.RT.PrefetchCalls,
		"rt.prefetch_filtered":     r.RT.PrefetchFiltered,
		"rt.release_issued":        r.RT.ReleaseIssued,
		"sim.clamps":               r.SimClamps,
	}
}
