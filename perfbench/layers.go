package main

import (
	"sort"
	"strings"
)

// Buckets that are not a package under internal/.
const (
	bucketMaps    = "maps"        // Go map operations (internal/runtime/maps)
	bucketFmt     = "fmt_strconv" // fmt and strconv formatting
	bucketGC      = "runtime.gc"  // garbage collection, background or assisted
	bucketSched   = "runtime.sched"
	bucketRuntime = "runtime.other"
	bucketOther   = "other" // the facade, this benchmark, and std code they call
)

const modulePath = "memhogs/"

// bucketOf attributes one sample, given its stack leaf first, to a
// bucket. A leaf in a package under internal/, in Go's map code or in
// fmt/strconv is counted there. A runtime leaf is GC when a collector
// frame is on the stack and the scheduler when a goroutine handoff
// frame is. Any other runtime or library leaf (allocation, copying,
// strings.Builder, ...) counts for the nearest caller that has one of
// the first buckets, and as runtime.other or other if none does.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return bucketOther
	}
	if b := layerBucket(stack[0]); b != "" {
		return b
	}
	runtimeLeaf := isRuntimePackage(funcPackage(stack[0]))
	if runtimeLeaf {
		for _, fn := range stack {
			if isGCFrame(fn) {
				return bucketGC
			}
		}
		for _, fn := range stack {
			if isSchedFrame(fn) {
				return bucketSched
			}
		}
	}
	for _, fn := range stack[1:] {
		if b := layerBucket(fn); b != "" {
			return b
		}
	}
	if runtimeLeaf {
		return bucketRuntime
	}
	return bucketOther
}

// layerBucket returns the bucket of a function in a package under
// internal/, in Go's map code or in fmt/strconv, and "" for any other.
func layerBucket(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, modulePath+"internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, modulePath+"internal/"), "/")
		return layer
	case pkg == "internal/runtime/maps" || strings.HasPrefix(fn, "runtime.map"):
		return bucketMaps
	case pkg == "fmt" || pkg == "strconv":
		return bucketFmt
	}
	return ""
}

func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// funcPackage returns the import path of a function name as pprof
// records it, e.g. "memhogs/internal/sim.(*Sim).Run" -> "memhogs/internal/sim".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isGCFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	if strings.HasPrefix(name, "gc") || name == "_GC" {
		return true
	}
	for _, part := range []string{"sweep", "scavenge", "markroot", "scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "wbBuf", "bulkBarrier"} {
		if strings.Contains(name, part) {
			return true
		}
	}
	return false
}

// schedFrames are the runtime functions of a goroutine handoff: the
// channel operations the sim procs block in, parking and readying, and
// the scheduler loop with its thread sleeps and wakeups.
var schedFrames = map[string]bool{
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true, "chanrecv2": true,
	"selectgo": true, "send": true, "recv": true,
	"gopark": true, "goparkunlock": true, "park_m": true, "goready": true, "ready": true,
	"schedule": true, "findRunnable": true, "execute": true, "gogo": true, "mcall": true,
	"goexit0": true, "gosched_m": true, "goschedImpl": true, "Gosched": true,
	"wakep": true, "startm": true, "stopm": true, "mPark": true, "handoffp": true,
	"notesleep": true, "notewakeup": true, "futexsleep": true, "futexwakeup": true,
	"runqget": true, "runqput": true, "runqgrab": true, "runqsteal": true, "stealWork": true,
	"resetspinning": true, "checkTimers": true, "netpoll": true,
}

func isSchedFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	return ok && schedFrames[name]
}

// bucketWeights sums sample values per bucket.
func bucketWeights(samples []sample) map[string]int64 {
	w := map[string]int64{}
	for _, s := range samples {
		w[bucketOf(s.stack)] += s.value
	}
	return w
}

// shares turns bucket weights into percentages of their total.
func shares(w map[string]int64) map[string]float64 {
	var total int64
	for _, v := range w {
		total += v
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range w {
		out[k] = 100 * float64(v) / float64(total)
	}
	return out
}

// shareMetric names the metric that reports a bucket's share.
func shareMetric(bucket string) string {
	switch bucket {
	case bucketGC:
		return "runtime.gc_share"
	case bucketSched:
		return "runtime.sched_share"
	case bucketRuntime:
		return "runtime.other_share"
	}
	return bucket + ".cpu_share"
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
