// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models virtual time at nanosecond resolution and runs
// simulated processes as goroutines that execute one at a time: the
// event loop hands control to exactly one process goroutine and waits
// for it to block again before dispatching the next event. Together
// with FIFO tie-breaking on simultaneous events this makes every run
// fully deterministic, which the experiment harness relies on.
//
// The rest of the system (disks, daemons, workloads) is built from
// three primitives defined here: timed events, parkable processes, and
// wait queues (from which locks and semaphores are derived).
package sim

import (
	"strconv"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Convenient durations expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with a unit suited to its magnitude: "%.3fs",
// "%.3fms" or "%.3fus" of the value in that unit, or "%dns" below a
// microsecond.
func (t Time) String() string {
	var b [24]byte
	return string(t.Append(b[:0]))
}

// Append appends the bytes String returns to dst, without fmt and
// without allocating beyond dst's growth.
func (t Time) Append(dst []byte) []byte {
	switch {
	case t >= Second:
		return append(t.AppendIn(dst, Second), 's')
	case t >= Millisecond:
		return append(t.AppendIn(dst, Millisecond), "ms"...)
	case t >= Microsecond:
		return append(t.AppendIn(dst, Microsecond), "us"...)
	default:
		return append(strconv.AppendInt(dst, int64(t), 10), "ns"...)
	}
}

// exactBelow bounds the integer path of AppendIn. Below it, the double
// float64(t)/float64(unit) lies within half an ulp of the true quotient,
// and half an ulp is less than both half a printed digit and the
// distance from any non-tie quotient to the nearest rounding tie, so
// the double prints as the integer path does. Above it, half an ulp
// could cross a tie.
const exactBelow = 1 << 50

// AppendIn appends t expressed in unit with three decimals: the bytes
// of fmt's "%.3f" of float64(t)/float64(unit). For a unit that is a
// multiple of 1000 ns (Microsecond, Millisecond, Second) the quotient
// is computed in integers and rounded half up. An exact tie, a
// negative t, t >= 2^50 or any other unit falls back to strconv on the
// double, whose rounding then decides.
func (t Time) AppendIn(dst []byte, unit Time) []byte {
	d := unit / 1000 // one thousandth of the unit
	if t < 0 || t >= exactBelow || d <= 0 || unit%1000 != 0 {
		return strconv.AppendFloat(dst, float64(t)/float64(unit), 'f', 3, 64)
	}
	q, r := t/d, t%d
	switch {
	case 2*r == d:
		return strconv.AppendFloat(dst, float64(t)/float64(unit), 'f', 3, 64)
	case 2*r > d:
		q++
	}
	dst = strconv.AppendInt(dst, int64(q/1000), 10)
	f := q % 1000
	return append(dst, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Sim is a discrete-event simulator. The zero value is not usable; use
// New.
type Sim struct {
	now     Time
	seq     uint64
	events  eventQueue
	yield   chan struct{} // process goroutine -> event loop handoff
	current *Proc         // process currently executing, nil in event loop
	nprocs  int           // live (spawned, not finished) processes
	stopped bool
	clamps  int64 // past-time schedules clamped to now (caller bugs)
}

// New creates an empty simulator positioned at time zero.
func New() *Sim {
	s := &Sim{yield: make(chan struct{})}
	s.events.free = -1 // empty free list; first push grows the arena
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run inside the event loop at time t. Scheduling
// in the past is an error in the caller; it is clamped to now so the
// simulation never moves backwards, and counted (see ClampedSchedules)
// so the caller bug is observable.
//
//simvet:hot
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
		s.clamps++
	}
	s.seq++
	s.events.push(t, s.seq, fn, nil)
}

// After schedules fn to run d nanoseconds from now.
//
//simvet:hot
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// scheduleResume enqueues the resumption of p at time t.
//
//simvet:hot
func (s *Sim) scheduleResume(p *Proc, t Time) {
	if t < s.now {
		t = s.now
		s.clamps++
	}
	s.seq++
	s.events.push(t, s.seq, nil, p)
}

// ClampedSchedules returns how many times a schedule (At, After, or a
// process resumption) named a time in the past and was clamped to the
// current time. A nonzero count means some caller computed a stale
// deadline; the standard campaigns assert it stays zero.
func (s *Sim) ClampedSchedules() int64 { return s.clamps }

// Stop makes Run return after the current event completes. Pending
// events remain queued; Run may be called again to continue.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue drains, the horizon passes, or
// Stop is called. A zero horizon means "run until idle". It returns
// the virtual time at which it stopped.
//
//simvet:hot
func (s *Sim) Run(horizon Time) Time {
	s.stopped = false
	for s.events.len() > 0 && !s.stopped {
		at := s.events.peekAt()
		if horizon > 0 && at > horizon {
			s.now = horizon
			break
		}
		fn, proc := s.events.pop()
		s.now = at
		if proc != nil {
			s.dispatch(proc)
		} else {
			fn()
		}
	}
	return s.now
}

// dispatch hands control to p's goroutine and blocks until it parks
// again or finishes.
//
//simvet:hot
func (s *Sim) dispatch(p *Proc) {
	if p.finished {
		return
	}
	s.current = p
	p.resume <- struct{}{}
	<-s.yield
	s.current = nil
}

// Current returns the process whose goroutine is executing, or nil if
// control is inside the event loop.
func (s *Sim) Current() *Proc { return s.current }

// Idle reports whether no events remain.
func (s *Sim) Idle() bool { return s.events.len() == 0 }

// LiveProcs returns the number of spawned processes that have not yet
// finished. Useful for detecting deadlock in tests.
func (s *Sim) LiveProcs() int { return s.nprocs }
