package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// Every package under internal/ is a layer of its own name, subpackages
// included, and every layer the traced run reports is a package there.
func TestEveryInternalPackageMapsToItsLayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkgs[e.Name()] = true
		for _, fn := range []string{
			"memhogs/internal/" + e.Name() + ".F",
			"memhogs/internal/" + e.Name() + ".(*T).m.func1",
			"memhogs/internal/" + e.Name() + "/sub.G",
			"memhogs/internal/" + e.Name() + ".H[go.shape.int,memhogs/internal/other.T]",
		} {
			if got := bucketOf([]string{fn}); got != e.Name() {
				t.Errorf("%s -> %q, want %q", fn, got, e.Name())
			}
		}
	}
	for _, b := range sharedBuckets {
		named := b == bucketMaps || b == bucketFmt || b == bucketGC || b == bucketSched || b == bucketRuntime || b == bucketOther
		if !named && !pkgs[b] {
			t.Errorf("reported layer %q is not a package under internal/", b)
		}
	}
}

func TestNamedBuckets(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "memhogs/internal/compiler.(*Image).byteOf"}, bucketMaps},
		{[]string{"runtime.mapaccess2_fast64", "memhogs/internal/compiler.(*Image).byteOf"}, bucketMaps},
		{[]string{"fmt.(*pp).doPrintf", "memhogs/internal/events.(*Recorder).Chrome"}, bucketFmt},
		{[]string{"strconv.appendQuotedWith"}, bucketFmt},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, bucketGC},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, bucketSched},
		{[]string{"runtime.lock2", "runtime.chansend", "runtime.chansend1", "memhogs/internal/sim.(*Proc).yield"}, bucketSched},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.selectgo"}, bucketSched},
		// Other runtime and library leaves count for their nearest layer.
		{[]string{"runtime.memmove", "strings.(*Builder).grow", "strings.(*Builder).WriteString", "memhogs/internal/events.(*Recorder).Chrome"}, "events"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "memhogs/internal/compiler.(*runner).loop"}, "compiler"},
		{[]string{"sync.(*Pool).pin", "fmt.newPrinter", "fmt.Sprintf", "memhogs/internal/sim.Time.String"}, bucketFmt},
		{[]string{"aeshashbody", "runtime.mapaccess2_faststr", "main.runCell"}, bucketMaps},
		{[]string{"runtime.memmove", "main.runCell"}, bucketRuntime},
		{[]string{"runtime._ExternalCode"}, bucketRuntime},
		{[]string{"main.runCell"}, bucketOther},
		{[]string{"memhogs.Trace"}, bucketOther},
		{[]string{"crypto/sha256.block", "main.runCell"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("%v -> %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// syntheticProfile encodes a CPU profile the way runtime/pprof does:
// gzipped profile.proto with a string table, functions, locations (one
// with an inlined frame) and samples whose ids come both packed and
// one per field.
func syntheticProfile() []byte {
	key := func(b []byte, num, wire int) []byte { return binary.AppendUvarint(b, uint64(num<<3|wire)) }
	varint := func(b []byte, num int, v uint64) []byte { return binary.AppendUvarint(key(b, num, 0), v) }
	bytesField := func(b []byte, num int, data []byte) []byte {
		return append(binary.AppendUvarint(key(b, num, 2), uint64(len(data))), data...)
	}
	packed := func(b []byte, num int, vs ...uint64) []byte {
		var p []byte
		for _, v := range vs {
			p = binary.AppendUvarint(p, v)
		}
		return bytesField(b, num, p)
	}
	names := []string{"", "samples", "count", "cpu", "nanoseconds",
		"memhogs/internal/compiler.(*runner).loop", "internal/runtime/maps.(*Map).getWithKeySmall",
		"runtime.scanobject", "runtime.gcBgMarkWorker", "memhogs/internal/chaos.(*Injector).Fire", "main.main"}
	var p []byte
	p = bytesField(p, 1, varint(varint(nil, 1, 1), 2, 2)) // sample type samples/count
	p = bytesField(p, 1, varint(varint(nil, 1, 3), 2, 4)) // sample type cpu/nanoseconds
	sample := func(value uint64, locs ...uint64) {
		var s []byte
		if len(locs) > 1 {
			s = packed(s, 1, locs...)
		} else {
			s = varint(s, 1, locs[0])
		}
		p = bytesField(p, 2, packed(s, 2, value/1e7, value))
	}
	sample(50e7, 1)    // compiler
	sample(30e7, 2, 6) // maps, inlined into compiler's location
	sample(15e7, 3, 4) // GC
	sample(5e7, 5)     // chaos
	// Location 2 carries two lines: maps inlined into the compiler.
	p = bytesField(p, 4, bytesField(bytesField(varint(nil, 1, 2), 4, varint(nil, 1, 2)), 4, varint(nil, 1, 1)))
	for _, id := range []uint64{1, 3, 4, 5, 6} { // location id = function id
		p = bytesField(p, 4, bytesField(varint(nil, 1, id), 4, varint(nil, 1, id)))
	}
	for id := uint64(1); id <= 6; id++ {
		p = bytesField(p, 5, varint(varint(nil, 1, id), 2, id+4))
	}
	for _, s := range names {
		p = bytesField(p, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	zw.Close()
	return buf.Bytes()
}

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// Shares of a synthetic profile come out exactly, sum to 100, and still
// sum to 100 after the traced run folds unreported layers into other.
func TestSharesOfSyntheticProfile(t *testing.T) {
	samples, err := parseProfile(syntheticProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 || !slices.Equal(samples[1].stack, []string{"internal/runtime/maps.(*Map).getWithKeySmall", "memhogs/internal/compiler.(*runner).loop", "main.main"}) {
		t.Fatalf("decoded samples %+v", samples)
	}
	sh := shares(bucketWeights(samples))
	want := map[string]float64{"compiler": 50, bucketMaps: 30, bucketGC: 15, "chaos": 5}
	for b, w := range want {
		if math.Abs(sh[b]-w) > 1e-9 {
			t.Errorf("%s share %.3f, want %.0f", b, sh[b], w)
		}
	}
	if math.Abs(sum(sh)-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum(sh))
	}

	m := layerMetrics([]setResult{{Profiled: true, Cells: []cellResult{{Name: "c", Buckets: bucketWeights(samples), ProbeS: refProbeS}}}})
	var reported float64
	for _, b := range sharedBuckets {
		reported += m[shareMetric(b)].Value
	}
	if math.Abs(reported-100) > 1e-9 || math.Abs(m["other.cpu_share"].Value-5) > 1e-9 {
		t.Errorf("reported shares sum to %v with other %v, want 100 and 5", reported, m["other.cpu_share"].Value)
	}
}

// A real CPU profile from runtime/pprof decodes, and its shares sum to
// 100.
func TestSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x += int(time.Now().UnixNano() & 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skipf("no samples in 300ms (x=%d)", x)
	}
	if s := sum(shares(bucketWeights(samples))); math.Abs(s-100) > 1e-9 {
		t.Errorf("shares sum to %v", s)
	}
}

// Host times are scaled by the reference over the probe time around
// their cell; the unscaled CPU and wall times, and counts, are not.
func TestHostTimesScaleToReferenceSpeed(t *testing.T) {
	c := cellResult{Name: "c", SetupS: 0.02, RunS: 2, WallRunS: 2.5, CompileS: 0.01,
		GCCycles: 3, GoroutinesLeaked: 12, ProbeS: 2 * refProbeS}
	sets := []setResult{{Cells: []cellResult{c}}, {Profiled: true, Cells: []cellResult{c}}}
	for name, want := range map[string]float64{
		"compiler.compile_s": 0.005, "traced.run_s": 1, "untraced.run_s": 1,
		"cpu.run_s": 2, "wall.run_s": 2.5, "gc.cycles": 3, "sim.goroutines_leaked": 12,
		"host.probe_ms": 2000 * refProbeS,
	} {
		if got := layerMetrics(sets)[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	e := endToEnd(sets)
	if e["run_s"].Value != 1 || e["setup_s"].Value != 0.01 {
		t.Errorf("run_s %v, setup_s %v; want 1 and 0.01", e["run_s"].Value, e["setup_s"].Value)
	}
}
