package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"memhogs"
	"memhogs/internal/driver"
	"memhogs/internal/workload"
)

func fingerprint(r *driver.Result) string {
	fp := sha256.Sum256(fmt.Appendf(nil, "%+v", *r))
	return hex.EncodeToString(fp[:8])
}

// Seed 0 must reproduce the built-in index data: every indirect cell
// run through the benchmark's wrapped generators and its own
// compile-bind-run path gives the same driver.Result as a plain
// driver.Run of the unwrapped spec.
func TestSeedZeroMatchesUnwrappedRun(t *testing.T) {
	cs, err := cells("indirect", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		spec, err := workload.ScaledByName(c.spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := driver.Run(spec, driver.TestRunConfig(c.cfg.Mode))
		if err != nil {
			t.Fatal(err)
		}
		got := runCell(c, false)
		if got.Err != "" {
			t.Fatalf("%s: %s", c.name, got.Err)
		}
		if got.Fingerprint != fingerprint(want) {
			t.Errorf("%s: seed 0 result %s, unwrapped driver.Run %s", c.name, got.Fingerprint, fingerprint(want))
		}
		if got.Counters["vm.hard_faults"] != want.VM.HardFaults || got.Counters["rt.prefetch_calls"] != want.RT.PrefetchCalls {
			t.Errorf("%s: counters %v differ from driver.Run's", c.name, got.Counters)
		}
	}
}

// Another seed changes every index stream, and its cells still pass
// every output check.
func TestOtherSeedChangesIndexDataAndPassesChecks(t *testing.T) {
	const seed = 7
	for _, name := range []string{"buk", "cgm"} {
		spec, err := workload.ScaledByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base, seeded := spec.DataGens(spec.Params), seededSpec(spec, seed).DataGens(spec.Params)
		for array, fn := range base {
			same := 0
			for i := int64(0); i < 1000; i++ {
				if fn(i) == seeded[array](i) {
					same++
				}
			}
			if same > 100 {
				t.Errorf("%s.%s: %d of 1000 values unchanged by seed %d", name, array, same, seed)
			}
		}
	}

	cs, err := cells("indirect", seed)
	if err != nil {
		t.Fatal(err)
	}
	var set setResult
	for _, c := range cs {
		set.Cells = append(set.Cells, runCell(c, false))
	}
	if _, failures := checkSets("indirect", []setResult{set, set}, nil); len(failures) > 0 {
		t.Errorf("seed %d fails its checks: %v", seed, failures)
	}
}

// The seed orders the cells, and the same seed gives the same order.
func TestCellOrderFollowsSeed(t *testing.T) {
	names := func(seed uint64) string {
		cs, err := cells("trace", seed)
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for _, c := range cs {
			s += c.name + " "
		}
		return s
	}
	if names(3) != names(3) {
		t.Error("seed 3 gives two cell orders")
	}
	if names(3) == names(4) {
		t.Error("seeds 3 and 4 give one cell order")
	}
}

// A trace cell run the benchmark's way exports the same Chrome bytes as
// memhogs.Trace, the path `memhog trace` takes.
func TestTraceCellMatchesFacade(t *testing.T) {
	cs, err := cells("trace", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.name != "embar/B" && c.name != "fftpde/P+far" {
			continue
		}
		m := memhogs.TestMachine()
		if c.cfg.Kernel.Far.Pages > 0 {
			m.MemoryMB, m.FarMemMB = 3, 1
		}
		v := map[string]memhogs.Version{"O": memhogs.Original, "P": memhogs.PrefetchOnly, "R": memhogs.Aggressive, "B": memhogs.Buffered}[c.cfg.Mode.String()]
		tr, err := memhogs.Trace(c.spec.Name, v, m, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(tr.ChromeJSON)
		got := runCell(c, true)
		if got.ChromeSHA != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: Chrome sha256 %s, memhogs.Trace gives %x", c.name, got.ChromeSHA, sum)
		}
		if got.ChromeS <= 0 || got.LogS <= 0 || got.CompileS <= 0 || got.BindS <= 0 {
			t.Errorf("%s: spans not all taken: %+v", c.name, got)
		}
	}
}

// The cells' host times are CPU time: busy work advances cpuSeconds,
// and a process that only waits barely does.
func TestCPUSecondsCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuSeconds()
	time.Sleep(200 * time.Millisecond)
	if d := cpuSeconds() - c0; d > 0.05 {
		t.Errorf("a 200ms sleep used %.3fs of CPU", d)
	}
	c1 := cpuSeconds()
	x := 0
	for end := time.Now().Add(5 * time.Second); cpuSeconds()-c1 < 0.1; x++ {
		if time.Now().After(end) {
			t.Fatalf("5s of busy work (x=%d) used under 0.1s of CPU", x)
		}
	}
}
