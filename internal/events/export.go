package events

import (
	"fmt"
	"sort"
	"strconv"
	"unsafe"

	"memhogs/internal/sim"
)

// The exporters append every event into one []byte sized up front from
// these per-line estimates (the quick trace cells average ~60 B per log
// line and ~100 B per Chrome event), so an export rarely grows its
// buffer.
const (
	logLineBytes    = 72
	chromeLineBytes = 112
	summaryBytes    = (int(KindCount) + 1) * 64 // counter lines + totals
)

// Per-kind strings the exporters would otherwise format per event: the
// padded log column, the quoted JSON name, and the quoted argument keys
// with their colon.
var (
	kindColumn, kindJSON [KindCount]string
	argKeys              [KindCount][2]string
)

func init() {
	for k := Kind(0); k < KindCount; k++ {
		kindColumn[k] = fmt.Sprintf("%-22s", k)
		kindJSON[k] = strconv.Quote(k.String())
		for i, label := range argLabels[k] {
			if label != "" {
				argKeys[k][i] = strconv.Quote(label) + ":"
			}
		}
	}
}

// Log renders the retained events as a human-readable merged log: one
// line per event, all tracks interleaved in virtual-time order,
// followed by the exact counter registry and the drop count. Each line
// is "%12s  %-11s %-22s" of time, actor and kind, then the page, the
// target and the kind's labelled values.
func (r *Recorder) Log() string {
	if r == nil {
		return r.CounterSummary()
	}
	actors := make([]string, len(r.names))
	for i, name := range r.names {
		actors[i] = fmt.Sprintf("%-11s ", name)
	}
	buf := make([]byte, 0, r.n*logLineBytes+summaryBytes)
	var tb [32]byte
	for i := 0; i < r.n; i++ {
		e := r.at(i)
		ts := e.At.Append(tb[:0])
		// Right-align the time in 12 columns ("%12s"; times are ASCII).
		buf = append(buf, "            "[min(len(ts), 12):]...)
		buf = append(buf, ts...)
		buf = append(buf, "  "...)
		buf = append(buf, actors[e.Actor]...)
		buf = append(buf, kindColumn[e.Kind]...)
		if e.Page >= 0 {
			buf = append(buf, " page="...)
			buf = strconv.AppendInt(buf, int64(e.Page), 10)
		}
		if e.Target != 0 {
			buf = append(buf, " of="...)
			buf = append(buf, r.names[e.Target]...)
		}
		labels := argLabels[e.Kind]
		if labels[0] != "" {
			buf = append(append(append(buf, ' '), labels[0]...), '=')
			buf = strconv.AppendInt(buf, e.A, 10)
		}
		if labels[1] != "" {
			buf = append(append(append(buf, ' '), labels[1]...), '=')
			buf = strconv.AppendInt(buf, e.B, 10)
		}
		buf = append(buf, '\n')
	}
	buf = r.appendCounterSummary(buf)
	// buf is never written again, so the string can share its bytes,
	// as strings.Builder does.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// CounterSummary renders the counter registry: one line per nonzero
// kind in declaration order, plus retained/dropped totals.
func (r *Recorder) CounterSummary() string {
	var b [summaryBytes]byte
	return string(r.appendCounterSummary(b[:0]))
}

// appendCounterSummary appends CounterSummary's bytes to buf.
func (r *Recorder) appendCounterSummary(buf []byte) []byte {
	counts := r.Counts()
	var total int64
	for k := Kind(0); k < KindCount; k++ {
		if counts[k] == 0 {
			continue
		}
		total += counts[k]
		buf = append(append(append(buf, "counter "...), kindColumn[k]...), ' ')
		buf = append(strconv.AppendInt(buf, counts[k], 10), '\n')
	}
	buf = strconv.AppendInt(append(buf, "events "...), total, 10)
	buf = strconv.AppendInt(append(buf, " recorded, "...), int64(r.Len()), 10)
	buf = strconv.AppendInt(append(buf, " retained, "...), r.Dropped(), 10)
	return append(buf, " dropped by the ring\n"...)
}

// Chrome renders the retained events as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing): one thread track per
// actor, instant events for decisions, and a counter track per process
// from the shared-page refreshes (usage vs limit over time). The JSON
// is built by hand with fixed key order so the bytes are fully
// deterministic; "ts" is the event time in microseconds with three
// decimals.
func (r *Recorder) Chrome() []byte {
	if r == nil {
		return new(Recorder).Chrome() // an empty trace
	}
	// One tid per actor in order of first appearance; each name is
	// quoted once.
	tids := make([]int64, len(r.names))
	var actors []uint32
	for i := 0; i < r.n; i++ {
		if a := r.at(i).Actor; tids[a] == 0 {
			actors = append(actors, a)
			tids[a] = int64(len(actors))
		}
	}
	quoted := make([]string, len(r.names))
	for i, name := range r.names {
		quoted[i] = strconv.Quote(name)
	}
	counterNames := make([]string, len(r.names))
	for _, a := range actors {
		counterNames[a] = strconv.Quote("mem[" + r.names[a] + "]")
	}

	// otherData lists the nonzero counters sorted by kind name.
	counts := r.Counts()
	var nonzero []Kind
	for k := Kind(0); k < KindCount; k++ {
		if counts[k] != 0 {
			nonzero = append(nonzero, k)
		}
	}
	sort.Slice(nonzero, func(i, j int) bool { return nonzero[i].String() < nonzero[j].String() })

	buf := make([]byte, 0, r.n*chromeLineBytes+len(actors)*96+len(nonzero)*48+128)
	buf = append(buf, "{\"traceEvents\":[\n"...)
	buf = append(buf, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"memhogs"}}`...)
	for _, a := range actors {
		buf = append(buf, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"...)
		buf = strconv.AppendInt(buf, tids[a], 10)
		buf = append(buf, ",\"args\":{\"name\":"...)
		buf = append(append(buf, quoted[a]...), "}}"...)
	}
	for i := 0; i < r.n; i++ {
		e := r.at(i)
		if e.Kind == PMRefresh {
			// Counter track: shared-page usage vs limit per process.
			buf = append(buf, ",\n{\"name\":"...)
			buf = append(buf, counterNames[e.Actor]...)
			buf = append(buf, ",\"ph\":\"C\",\"ts\":"...)
			buf = e.At.AppendIn(buf, sim.Microsecond)
			buf = append(buf, ",\"pid\":1,\"tid\":"...)
			buf = strconv.AppendInt(buf, tids[e.Actor], 10)
			buf = append(buf, ",\"args\":{\"current\":"...)
			buf = strconv.AppendInt(buf, e.A, 10)
			buf = append(buf, ",\"limit\":"...)
			buf = strconv.AppendInt(buf, e.B, 10)
			buf = append(buf, "}}"...)
			continue
		}
		buf = append(buf, ",\n{\"name\":"...)
		buf = append(buf, kindJSON[e.Kind]...)
		buf = append(buf, ",\"ph\":\"i\",\"ts\":"...)
		buf = e.At.AppendIn(buf, sim.Microsecond)
		buf = append(buf, ",\"pid\":1,\"tid\":"...)
		buf = strconv.AppendInt(buf, tids[e.Actor], 10)
		buf = append(buf, ",\"s\":\"t\",\"args\":{"...)
		sep := ""
		if e.Page >= 0 {
			buf = append(buf, "\"page\":"...)
			buf = strconv.AppendInt(buf, int64(e.Page), 10)
			sep = ","
		}
		if e.Target != 0 {
			buf = append(append(buf, sep...), "\"of\":"...)
			buf = append(buf, quoted[e.Target]...)
			sep = ","
		}
		keys := &argKeys[e.Kind]
		if keys[0] != "" {
			buf = append(append(buf, sep...), keys[0]...)
			buf = strconv.AppendInt(buf, e.A, 10)
			sep = ","
		}
		if keys[1] != "" {
			buf = append(append(buf, sep...), keys[1]...)
			buf = strconv.AppendInt(buf, e.B, 10)
		}
		buf = append(buf, "}}"...)
	}
	buf = append(buf, "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"...)
	for _, k := range nonzero {
		buf = append(buf, kindJSON[k]...)
		buf = strconv.AppendInt(append(buf, ':'), counts[k], 10)
		buf = append(buf, ',')
	}
	buf = append(buf, "\"dropped\":"...)
	buf = strconv.AppendInt(buf, r.Dropped(), 10)
	return append(buf, "}\n}\n"...)
}
