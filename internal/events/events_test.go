package events

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"memhogs/internal/sim"
)

func TestRingReportsDropsInsteadOfGrowing(t *testing.T) {
	s := sim.New()
	r := New(s, 8)
	for i := 0; i < 100; i++ {
		r.Emit(DaemonSteal, "pageoutd", "app", i, 0, 0)
	}
	if r.Len() != 8 {
		t.Fatalf("ring grew: Len = %d, want 8", r.Len())
	}
	if r.Dropped() != 92 {
		t.Fatalf("Dropped = %d, want 92", r.Dropped())
	}
	if got := r.Counts().Get(DaemonSteal); got != 100 {
		t.Fatalf("counter lost events under drops: %d, want 100", got)
	}
	// The ring keeps the most recent events.
	if r.at(0).Page != 92 || r.at(7).Page != 99 {
		t.Fatalf("ring did not keep the newest events: first page %d, last %d", r.at(0).Page, r.at(7).Page)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(FaultHard, "app", "", 1, 0, 0) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
	if (r.Counts() != Counts{}) {
		t.Fatal("nil recorder has counts")
	}
}

func TestLogAndCounterSummary(t *testing.T) {
	s := sim.New()
	r := New(s, 0)
	r.Emit(FaultSoft, "app", "", 3, 1, 0)
	r.Emit(DaemonSteal, "pageoutd", "app", 3, 17, 0)
	log := r.Log()
	for _, want := range []string{"fault-soft", "daemon-steal", "page=3", "of=app", "free=17",
		"counter fault-soft", "0 dropped"} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

func TestChromeIsValidJSON(t *testing.T) {
	s := sim.New()
	r := New(s, 0)
	r.Emit(FaultHard, "app", "", 7, 0, 0)
	r.Emit(PMRefresh, "app", "", -1, 10, 20)
	r.Emit(ReleaserFree, "releaserd", "app", 7, 0, 1)
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		OtherData   map[string]int64         `json:"otherData"`
	}
	raw := r.Chrome()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, raw)
	}
	// 2 metadata (process + 2 threads actually = 3) + 3 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("traceEvents = %d entries, want 6:\n%s", len(doc.TraceEvents), raw)
	}
	if doc.OtherData["fault-hard"] != 1 || doc.OtherData["dropped"] != 0 {
		t.Fatalf("otherData counters wrong: %v", doc.OtherData)
	}
	// Deterministic bytes.
	if string(raw) != string(r.Chrome()) {
		t.Fatal("chrome export not deterministic")
	}
}

// BenchmarkEmitDisabled guards the "near-zero overhead when disabled"
// requirement: this is the full cost an instrumented hot path pays
// when no recorder is installed.
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		r.Emit(RTReleaseBuffer, "app", "", i, 1, 0)
	}
}

// BenchmarkEmitEnabled is the recording-on cost per event.
func BenchmarkEmitEnabled(b *testing.B) {
	r := New(sim.New(), 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(RTReleaseBuffer, "app", "", i, 1, 0)
	}
}

// filled returns a recorder holding n events over a few actors and
// targets, with page-scoped, labelled and counter-track kinds mixed in.
func filled(n int) *Recorder {
	s := sim.New()
	r := New(s, n)
	actors := []string{"app", "pageoutd", "releaserd"}
	kinds := []Kind{FaultHard, PageIn, DaemonSteal, PMRefresh, ReleaserFree, RTReleaseBuffer}
	for i := 0; i < n; i++ {
		target := ""
		if i%3 == 0 {
			target = "app"
		}
		s.At(sim.Time(i)*1237, func() {
			r.Emit(kinds[i%len(kinds)], actors[i%len(actors)], target, i%500, int64(i), 1)
		})
	}
	s.Run(sim.Time(n) * 1237)
	return r
}

// TestEventHoldsNoPointers keeps the ring out of the garbage
// collector's scan: no Event field may be or contain a pointer.
func TestEventHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Event.%s is a %s; events must stay pointer-free", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(Event{}); size > 48 {
		t.Errorf("Event is %d bytes, want at most 48", size)
	}
}

// TestEmitKnownNamesDoesNotAllocate: after a name's first sight,
// recording costs a table lookup, not an allocation.
func TestEmitKnownNamesDoesNotAllocate(t *testing.T) {
	r := New(sim.New(), 1<<chunkShift) // one chunk, allocated by the warm-up
	r.Emit(DaemonSteal, "pageoutd", "app", 1, 2, 3)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(DaemonSteal, "pageoutd", "app", 1, 2, 3)
		r.Emit(FaultHard, "app", "", 1, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("Emit with known names allocated %.2f times per call pair", allocs)
	}
}

// TestExportAllocsDoNotScaleWithEvents: the exporters allocate per
// name and per export, never per event, so a 64K-event recorder
// allocates no more times than a 1K-event one plus a small constant
// (a buffer regrowth when the size estimate falls short).
func TestExportAllocsDoNotScaleWithEvents(t *testing.T) {
	small, large := filled(1<<10), filled(1<<16)
	for _, exp := range []struct {
		name string
		run  func(r *Recorder)
	}{
		{"Log", func(r *Recorder) { _ = r.Log() }},
		{"Chrome", func(r *Recorder) { _ = r.Chrome() }},
	} {
		a := testing.AllocsPerRun(5, func() { exp.run(small) })
		b := testing.AllocsPerRun(5, func() { exp.run(large) })
		if b > a+2 {
			t.Errorf("%s: %.0f allocations for 64K events vs %.0f for 1K", exp.name, b, a)
		}
	}
}

func BenchmarkLog(b *testing.B) {
	r := filled(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Log()
	}
}

func BenchmarkChrome(b *testing.B) {
	r := filled(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Chrome()
	}
}
