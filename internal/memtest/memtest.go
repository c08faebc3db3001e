// Package memtest is the property-testing harness for the memory
// tiers: it drives randomized demote/promote/release/fault sequences
// against a real kernel.System with a far tier, checks after every
// step that each page lives in exactly one of {DRAM, far, swap, gone},
// that contents (modeled by the dirty bit) survive demote→promote
// round-trips, and that the per-tier counters reconcile with
// kernel.Audit — and renders a failing sequence (minimized with
// shrink.Shrink) as a replay call that can be pasted straight into a
// test.
package memtest

import (
	"fmt"
	"strconv"
	"strings"

	"memhogs/internal/kernel"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// NumPages is the harness address-space size: larger than DRAM so
// touches evict, with room for every page to move tiers.
const NumPages = 48

// DRAMPages and FarPages split the harness machine: a tight DRAM so
// the paging daemon interleaves with the sequence, and a far tier
// small enough that demotions hit DemoteFull.
const (
	DRAMPages = 32
	FarPages  = 8
)

// Op is one step of a randomized tier exercise.
type Op struct {
	Kind byte // 't' touch, 'w' write-touch, 'p' prefetch, 'd' demote, 'r' release, 'q' queued release
	VPN  int
	Prio int // eq. 2 reuse priority, 'q' only
}

// String renders the op in the compact form ParseOps reads: "t3",
// "q4:2".
func (o Op) String() string {
	if o.Kind == 'q' {
		return fmt.Sprintf("q%d:%d", o.VPN, o.Prio)
	}
	return fmt.Sprintf("%c%d", o.Kind, o.VPN)
}

// OpsString renders a sequence as a space-separated pasteable string.
func OpsString(ops []Op) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// ParseOps is the inverse of OpsString, for replaying a shrunk repro.
func ParseOps(s string) ([]Op, error) {
	var ops []Op
	for _, tok := range strings.Fields(s) {
		if len(tok) < 2 {
			return nil, fmt.Errorf("memtest: bad op %q", tok)
		}
		op := Op{Kind: tok[0]}
		body := tok[1:]
		switch op.Kind {
		case 't', 'w', 'p', 'd', 'r':
			n, err := strconv.Atoi(body)
			if err != nil {
				return nil, fmt.Errorf("memtest: bad op %q: %v", tok, err)
			}
			op.VPN = n
		case 'q':
			vp, pr, ok := strings.Cut(body, ":")
			if !ok {
				return nil, fmt.Errorf("memtest: bad op %q: want q<vpn>:<prio>", tok)
			}
			var err error
			if op.VPN, err = strconv.Atoi(vp); err != nil {
				return nil, fmt.Errorf("memtest: bad op %q: %v", tok, err)
			}
			if op.Prio, err = strconv.Atoi(pr); err != nil {
				return nil, fmt.Errorf("memtest: bad op %q: %v", tok, err)
			}
		default:
			return nil, fmt.Errorf("memtest: unknown op kind %q", tok)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// RandomOps derives a reproducible sequence from seed: touch-heavy so
// pages are resident when the demote/release ops land, with queued
// releases carrying mixed priorities so both the far and swap arms of
// the releaser's decision run. Equal seeds give equal sequences.
func RandomOps(seed uint64, n int) []Op {
	rng := sim.NewRand(sim.Hash64(seed) + 1)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{VPN: rng.Intn(NumPages)}
		switch r := rng.Intn(10); {
		case r < 3:
			op.Kind = 't'
		case r < 5:
			op.Kind = 'w'
		case r < 7:
			op.Kind = 'q'
			op.Prio = rng.Intn(4)
		case r < 8:
			op.Kind = 'd'
		case r < 9:
			op.Kind = 'r'
		default:
			op.Kind = 'p'
		}
		ops = append(ops, op)
	}
	return ops
}

// Run replays ops against a fresh far-tiered system and returns the
// far tier's traffic stats next to the first invariant violation (nil
// for a clean pass). Runs are a pure function of ops — the harness is
// deterministic, so a failure shrinks and replays exactly.
func Run(ops []Op) (mem.FarStats, error) {
	cfg := kernel.TestConfig()
	cfg.UserMemPages = DRAMPages
	cfg.Far.Pages = FarPages
	sys := kernel.NewSystem(cfg)
	proc := sys.NewProcess("memtest", NumPages)
	as := proc.AS
	rel := proc.HomeReleaser()

	var failure error
	fail := func(i int, format string, args ...any) bool {
		if failure == nil {
			failure = fmt.Errorf("op %d (%s): %s", i, ops[i], fmt.Sprintf(format, args...))
		}
		return true
	}
	// frameDirty reads the modeled "contents" of a DRAM-resident page.
	frameDirty := func(vpn int) bool {
		return as.Phys().Frame(as.PTE(vpn).Frame).Dirty
	}

	proc.Start(true, func(th *kernel.Thread) {
		p := th.Proc()
		for i, op := range ops {
			pte := as.PTE(op.VPN)
			// Contents-survival bookkeeping: remember the dirty bit of
			// the page we are about to move, so the round-trip check
			// below can compare it on the far side of the transition.
			wasFar := pte.FarSlot != mem.NoFarSlot
			var movedDirty bool
			if wasFar {
				movedDirty = sys.Far.Slot(pte.FarSlot).Dirty
			} else if pte.Present && !pte.Busy {
				movedDirty = frameDirty(op.VPN)
			}

			switch op.Kind {
			case 't', 'w':
				write := op.Kind == 'w'
				out := th.Touch(op.VPN, write)
				if wasFar {
					if out != vm.FarFault {
						fail(i, "touch of far-resident page = %v, want far fault", out)
						return
					}
					// Demote→promote round-trip: the promoted frame
					// must carry the slot's dirty bit (plus this
					// touch's own write).
					if got, want := frameDirty(op.VPN), movedDirty || write; got != want {
						fail(i, "promoted frame dirty = %v, want %v — contents lost in round-trip", got, want)
						return
					}
				}
			case 'p':
				res := as.Prefetch(th.Exec(), op.VPN)
				if res == vm.PrefetchPromoted {
					if !wasFar {
						fail(i, "prefetch promoted a page that was not far-resident")
						return
					}
					if got := frameDirty(op.VPN); got != movedDirty {
						fail(i, "prefetch-promoted frame dirty = %v, want %v", got, movedDirty)
						return
					}
				}
			case 'd':
				as.Memlock.Acquire(p)
				as.InvalidateForRelease(op.VPN)
				demoted, dirty := as.TryDemote(op.VPN)
				if demoted {
					slot := sys.Far.Slot(as.PTE(op.VPN).FarSlot)
					if slot.Dirty != dirty || dirty != movedDirty {
						as.Memlock.Release(p)
						fail(i, "demoted slot dirty = %v, TryDemote said %v, frame had %v", slot.Dirty, dirty, movedDirty)
						return
					}
					if slot.VPN != op.VPN || slot.Owner != mem.Owner(as) {
						as.Memlock.Release(p)
						fail(i, "demoted slot identity %s/%d, want %s/%d", slot.Owner.OwnerName(), slot.VPN, as.OwnerName(), op.VPN)
						return
					}
				}
				as.Memlock.Release(p)
			case 'r':
				as.Memlock.Acquire(p)
				as.InvalidateForRelease(op.VPN)
				as.TryReclaim(op.VPN, mem.FreedRelease)
				as.Memlock.Release(p)
			case 'q':
				// The real release path: the PM invalidates, enqueues
				// with the page's priority, and the releaser decides
				// the tier. Sleep lets the releaser drain so the
				// post-op invariants see the settled state.
				as.Memlock.Acquire(p)
				as.InvalidateForRelease(op.VPN)
				as.Memlock.Release(p)
				rel.Enqueue(as, []int{op.VPN}, []int{op.Prio})
				th.SleepIdle(sim.Millisecond)
			}

			// Exactly-one-tier, counters, free lists, slot backrefs —
			// the kernel audit checks all of it after every op.
			if err := sys.Audit(); err != nil {
				fail(i, "audit: %v", err)
				return
			}
		}
	})
	sys.Run(0)
	fs := sys.Far.Stats()
	if failure != nil {
		return fs, failure
	}
	if err := sys.Audit(); err != nil {
		return fs, fmt.Errorf("final audit: %v", err)
	}
	// Per-tier counters must reconcile three ways: PTE scan, the AS
	// counter, and the tier's own occupancy/stats.
	farPTEs := 0
	for vpn := 0; vpn < NumPages; vpn++ {
		pte := as.PTE(vpn)
		if pte.FarSlot != mem.NoFarSlot {
			farPTEs++
			if pte.Present {
				return fs, fmt.Errorf("vpn %d resident in both DRAM and the far tier", vpn)
			}
		}
	}
	if farPTEs != as.FarResident {
		return fs, fmt.Errorf("%d far-slot PTEs, FarResident counter says %d", farPTEs, as.FarResident)
	}
	if used := sys.Far.UsedCount(); used != farPTEs {
		return fs, fmt.Errorf("far tier holds %d slots, %d PTEs point into it", used, farPTEs)
	}
	if live := fs.Demotions - fs.Promotions; live != int64(farPTEs) {
		return fs, fmt.Errorf("far demotions %d - promotions %d = %d, but %d pages are far-resident",
			fs.Demotions, fs.Promotions, live, farPTEs)
	}
	return fs, nil
}

// Repro renders the exact harness call that replays a failure.
func Repro(ops []Op) string {
	return fmt.Sprintf("memtest.Run(memtest.MustParseOps(%q))", OpsString(ops))
}

// MustParseOps is ParseOps for pasted repro strings known to be valid.
func MustParseOps(s string) []Op {
	ops, err := ParseOps(s)
	if err != nil {
		panic(err)
	}
	return ops
}
