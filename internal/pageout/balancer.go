package pageout

import (
	"strconv"

	"memhogs/internal/events"
	"memhogs/internal/mem"
	"memhogs/internal/sim"
	"memhogs/internal/vm"
)

// BalancerStats counts inter-node free-frame migrations.
type BalancerStats struct {
	Activations int64 // times the balancer found work
	Migrations  int64 // batches moved
	FramesMoved int64 // free frames moved between nodes
}

// Balancer is the inter-node free-memory balancer for a sharded pool:
// when one node's free list falls to its low-water mark while another
// node sits above the steal target, it migrates a batch of free
// frames (identities preserved — a loaned frame stays rescuable) from
// the rich node's head to the poor node's tail. Allocation-time
// stealing still covers the fully-exhausted case; the balancer keeps
// that case rare by smoothing imbalance before allocations hit it.
// The kernel only creates it when the pool has more than one node, so
// single-node runs have no extra process on the sim clock.
type Balancer struct {
	sim  *sim.Sim
	phys *mem.Phys
	exec vm.Exec

	low     int // migrate toward nodes at or below this free count
	target  int // donors must stay above this after giving
	batch   int // frames per migration
	perPage sim.Time

	wake   *sim.Waitq
	kicked bool

	Stats BalancerStats

	// Events is the flight recorder; nil disables recording.
	Events *events.Recorder
}

// balancerBatch bounds one migration so the balancer interleaves with
// the daemons instead of draining a node in one step.
const balancerBatch = 32

// NewBalancer creates the balancer with the per-node daemon
// thresholds: low is the per-node min-free (the wake condition),
// target the per-node desfree (what a donor must keep). perPage is
// the CPU charged per migrated frame.
func NewBalancer(s *sim.Sim, phys *mem.Phys, low, target int, perPage sim.Time) *Balancer {
	return &Balancer{
		sim:     s,
		phys:    phys,
		low:     low,
		target:  target,
		batch:   balancerBatch,
		perPage: perPage,
		wake:    sim.NewWaitq("balancer.wake"),
	}
}

// Kick asks the balancer to check node balance soon. Safe from any
// context; the kernel wires it into mem.Phys.NeedMemory alongside the
// per-node daemon kicks.
func (b *Balancer) Kick() {
	b.kicked = true
	b.wake.WakeOne()
}

// Start launches the balancer process. mk builds the execution
// context (CPU accounting) from its simulated process.
func (b *Balancer) Start(mk func(*sim.Proc) vm.Exec) {
	b.sim.Spawn("balancerd", func(p *sim.Proc) {
		b.exec = mk(p)
		b.loop(p)
	})
}

// plan picks one migration: the poorest node at or below low receives
// from the richest node that can give without dropping to the target.
// It returns (dst, src, frames); frames == 0 means nothing to do.
func (b *Balancer) plan() (dst, src, n int) {
	dst, src = -1, -1
	worst := b.low + 1
	for k := 0; k < b.phys.Nodes(); k++ {
		if free := b.phys.FreeCountNode(k); free < worst {
			worst, dst = free, k
		}
	}
	if dst < 0 {
		return 0, 0, 0
	}
	best := b.target
	for k := 0; k < b.phys.Nodes(); k++ {
		if k == dst {
			continue
		}
		if free := b.phys.FreeCountNode(k); free > best {
			best, src = free, k
		}
	}
	if src < 0 {
		return 0, 0, 0
	}
	n = b.batch
	if surplus := best - b.target; surplus < n {
		n = surplus
	}
	if need := b.target - worst; need > 0 && need < n {
		n = need
	}
	if n < 0 {
		n = 0
	}
	return dst, src, n
}

func (b *Balancer) loop(p *sim.Proc) {
	for {
		for {
			if _, _, n := b.plan(); n > 0 {
				break
			}
			b.kicked = false
			b.wake.Wait(p)
		}
		b.kicked = false
		b.Stats.Activations++
		for {
			dst, src, n := b.plan()
			if n <= 0 {
				break
			}
			b.exec.System(b.perPage * sim.Time(n))
			moved := b.phys.Migrate(src, dst, n)
			if moved == 0 {
				break
			}
			b.Stats.Migrations++
			b.Stats.FramesMoved += int64(moved)
			if b.Events != nil { // the target name is built only when recording
				b.Events.Emit(events.BalancerMigrate, "balancerd", "node"+strconv.Itoa(dst), -1, int64(moved), int64(src))
			}
		}
	}
}
