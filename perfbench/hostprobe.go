package main

// On a shared host, memory-bound work slows and speeds up by a quarter
// over minutes as other tenants load the caches and the memory bus,
// while plain arithmetic stays within a few percent. The cells are
// memory-bound (maps, allocation, collection), so their CPU times drift
// with the host. The parent therefore times a fixed probe of the same
// kind of work between consecutive cells, and the end-to-end host times
// scale each cell by refProbeS over the probe time around it: they
// read at one reference host speed. The probe runs in the parent, so it
// does not touch a cell's heap, collections or peak RSS, and it does
// not change with the program under test.

// refProbeS is hostProbe's median CPU time on the 2-vCPU virtual
// machine the benchmark was tuned on.
const refProbeS = 0.040

var (
	probeMap  map[uint64]uint64
	probeLive []*probeNode
	probeSink uint64
)

type probeNode struct {
	next *probeNode
	v    [6]uint64
}

// hostProbe times a fixed piece of memory-bound work and returns the
// CPU seconds it took: random lookups in a map of 64Ki entries, then
// 200k small allocations with pointers, a quarter of them kept live,
// which makes the collector run.
func hostProbe() float64 {
	if probeMap == nil {
		probeMap = make(map[uint64]uint64, 1<<16)
		for i := uint64(0); i < 1<<16; i++ {
			probeMap[i] = i
		}
	}
	c0 := cpuSeconds()
	x := uint64(1)
	next := func() uint64 { // a 64-bit LCG; the high bits index
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 20
	}
	for range 400_000 {
		probeSink += probeMap[next()%(1<<16)]
	}
	probeLive = probeLive[:0]
	for i := range 200_000 {
		n := &probeNode{}
		n.v[0] = x
		if len(probeLive) > 0 {
			n.next = probeLive[next()%uint64(len(probeLive))]
		}
		if i%4 == 0 {
			probeLive = append(probeLive, n)
		}
	}
	return cpuSeconds() - c0
}

// atRefSpeed returns f, a host time of a cell, scaled to the reference
// host speed.
func atRefSpeed(f func(cellResult) float64) func(cellResult) float64 {
	return func(c cellResult) float64 { return f(c) * refProbeS / c.ProbeS }
}
