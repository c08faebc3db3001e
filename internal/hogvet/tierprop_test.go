package hogvet_test

import (
	"fmt"
	"testing"

	"memhogs/internal/compiler"
	"memhogs/internal/footprint"
	"memhogs/internal/hogvet"
	"memhogs/internal/lang"
	"memhogs/internal/shrink"
	"memhogs/internal/sim"
)

// tierNest is one generated loop nest: the generator emits a sequence
// of them so the shrinker can drop whole nests while a property
// failure persists.
type tierNest struct {
	depth int   // 1..2 loops
	trips int64 // per loop
	coefs []int64
	cons  []int64 // one constant offset per array
	work  int     // @ work annotation
}

// tierProgSrc renders a nest sequence as a .hog program over narr
// shared arrays, so successive nests re-touch each other's data and
// the schedule grows real retained windows and releases.
func tierProgSrc(nests []tierNest, narr int, size int64) string {
	src := "program tierprop\n"
	for a := 0; a < narr; a++ {
		src += fmt.Sprintf("array a%d[%d] of float64\n", a, size)
	}
	vars := []string{"i", "j"}
	for _, n := range nests {
		for d := 0; d < n.depth; d++ {
			src += fmt.Sprintf("%sfor %s = 0 to %d {\n", indentN(d), vars[d], n.trips-1)
		}
		expr := ""
		for a := 0; a < narr; a++ {
			sub := fmt.Sprintf("%d", n.cons[a])
			for d := 0; d < n.depth; d++ {
				if c := n.coefs[a*2+d]; c > 0 {
					sub = fmt.Sprintf("%d*%s+%s", c, vars[d], sub)
				}
			}
			if a == 0 {
				expr = fmt.Sprintf("a0[%s] = a0[%s]", sub, sub)
			} else {
				expr += fmt.Sprintf(" + a%d[%s]", a, sub)
			}
		}
		src += indentN(n.depth) + expr + fmt.Sprintf(" @ %d\n", n.work)
		for d := n.depth - 1; d >= 0; d-- {
			src += indentN(d) + "}\n"
		}
	}
	return src
}

func indentN(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "    "
	}
	return s
}

// randTierNests draws a random nest sequence whose subscripts stay in
// bounds for the returned array size.
func randTierNests(r *sim.Rand) (nests []tierNest, narr int, size int64) {
	narr = 1 + r.Intn(3)
	count := 1 + r.Intn(3)
	for k := 0; k < count; k++ {
		n := tierNest{
			depth: 1 + r.Intn(2),
			trips: int64(64 + r.Intn(768)),
			coefs: make([]int64, narr*2),
			cons:  make([]int64, narr),
			work:  10 + r.Intn(40),
		}
		for a := 0; a < narr; a++ {
			for d := 0; d < n.depth; d++ {
				n.coefs[a*2+d] = int64(r.Intn(4))
			}
			if n.coefs[a*2] == 0 && (n.depth < 2 || n.coefs[a*2+1] == 0) {
				n.coefs[a*2+n.depth-1] = 1
			}
			n.cons[a] = int64(r.Intn(8))
		}
		nests = append(nests, n)
	}
	size = int64(0)
	for _, n := range nests {
		for a := 0; a < narr; a++ {
			idx := n.cons[a]
			for d := 0; d < n.depth; d++ {
				idx += n.coefs[a*2+d] * (n.trips - 1)
			}
			if idx >= size {
				size = idx + 1
			}
		}
	}
	return nests, narr, size + 8
}

// tierPropDRAMPages keeps the compile target small so the generated
// programs' footprints are comparable to the far-tier sizes swept
// below.
const tierPropDRAMPages = 256

// farSweep is the increasing far-tier sizes each program is certified
// at; the monotonicity properties quantify over adjacent pairs.
var farSweep = []int{8, 64, 512, 4096}

// tierPropViolation certifies the program's Buffered schedule at each
// far size in farSweep and returns a description of the first
// violated monotonicity property, or "" if all hold:
//
//   - the DRAM bound never increases as the far tier grows (the far
//     tier is downstream of the DRAM interpretation, so it must not
//     feed back);
//   - the uncapped far bound is the same at every positive tier size;
//   - the far certificate (the capped bound) never shrinks as its cap
//     grows;
//   - HV014 never flips clean→firing as the far tier grows: a
//     schedule that fits a small tier cannot overflow a bigger one.
func tierPropViolation(src string) string {
	viol, _ := tierPropCheck(src)
	return viol
}

// tierPropCheck is tierPropViolation plus the program's uncapped far
// bound, which the property test uses to prove the random sweep is
// not vacuous (some programs must actually demote something).
func tierPropCheck(src string) (string, int64) {
	prog, err := lang.Parse(src)
	if err != nil {
		return "", 0 // an unparseable shrink candidate is not a violation
	}
	tgt := compiler.DefaultTarget(16<<10, tierPropDRAMPages)
	tgt.Prefetch = true
	tgt.Release = true
	c, err := compiler.Compile(prog, tgt)
	if err != nil {
		return "", 0
	}
	type point struct {
		dram, farBound, farCert int64
		hv014                   bool
	}
	points := make([]point, len(farSweep))
	for i, far := range farSweep {
		cert := footprint.Certify(prog, tgt, c.Hints(), footprint.VersionB,
			footprint.Opts{FarPages: far, FarMinPrio: 1})
		p := point{dram: cert.BoundPages, farBound: cert.FarBoundPages, farCert: cert.FarCertifiedPages}
		for _, d := range hogvet.VetParamsFar(c, nil, far, 1) {
			if d.Code == "HV014" {
				p.hv014 = true
			}
		}
		points[i] = p
	}
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		f1, f2 := farSweep[i-1], farSweep[i]
		if prev.dram >= 0 && (cur.dram < 0 || cur.dram > prev.dram) {
			return fmt.Sprintf("DRAM bound grew %d → %d when far tier grew %d → %d",
				prev.dram, cur.dram, f1, f2), points[0].farBound
		}
		if cur.farBound != prev.farBound {
			return fmt.Sprintf("far bound changed %d → %d with the tier size (%d → %d): the uncapped bound must not depend on the cap",
				prev.farBound, cur.farBound, f1, f2), points[0].farBound
		}
		if cur.farCert < prev.farCert {
			return fmt.Sprintf("far certificate shrank %d → %d when its cap grew %d → %d",
				prev.farCert, cur.farCert, f1, f2), points[0].farBound
		}
		if !prev.hv014 && cur.hv014 {
			return fmt.Sprintf("HV014 flipped clean→firing when the far tier grew %d → %d", f1, f2), points[0].farBound
		}
	}
	return "", points[0].farBound
}

// TestFarTierMonotone property-checks the two-tier domain across
// random multi-nest affine programs: growing the far tier can only
// relax the verdicts. On failure the nest sequence is greedily shrunk
// at nest granularity and the minimal program printed as pasteable
// .hog source.
func TestFarTierMonotone(t *testing.T) {
	r := sim.NewRand(20260809)
	demoting := 0
	for trial := 0; trial < 30; trial++ {
		nests, narr, size := randTierNests(r)
		src := tierProgSrc(nests, narr, size)
		viol, farBound := tierPropCheck(src)
		if farBound != 0 {
			demoting++
		}
		if viol == "" {
			continue
		}
		// A program needs at least one nest, so the empty candidate
		// never counts as a repro.
		nests = shrink.Shrink(nests, func(cand []tierNest) bool {
			return len(cand) > 0 && tierPropViolation(tierProgSrc(cand, narr, size)) != ""
		})
		viol = tierPropViolation(tierProgSrc(nests, narr, size))
		t.Fatalf("trial %d: %s\nminimal repro:\n%s", trial, viol, tierProgSrc(nests, narr, size))
	}
	if demoting == 0 {
		t.Fatal("vacuous sweep: no generated program ever had a demotable page")
	}
}

// TestFarTierMonotoneNonVacuous pins that the sweep actually
// exercises the interesting region: a known overflowing program must
// fire HV014 at the small end of farSweep and certify cleanly at a
// big enough tier, so the flip direction the property forbids is the
// one that could plausibly occur.
func TestFarTierMonotoneNonVacuous(t *testing.T) {
	src := tierProgSrc([]tierNest{
		{depth: 2, trips: 700, coefs: []int64{0, 1, 1, 0}, cons: []int64{0, 0}, work: 20},
		{depth: 1, trips: 700, coefs: []int64{1, 0, 1, 0}, cons: []int64{0, 0}, work: 20},
	}, 2, 720*701)
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	tgt := compiler.DefaultTarget(16<<10, tierPropDRAMPages)
	tgt.Prefetch = true
	tgt.Release = true
	c, err := compiler.Compile(prog, tgt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fired := map[int]bool{}
	for _, far := range farSweep {
		for _, d := range hogvet.VetParamsFar(c, nil, far, 1) {
			if d.Code == "HV014" {
				fired[far] = true
			}
		}
	}
	if !fired[farSweep[0]] {
		t.Errorf("expected HV014 at the %d-page far tier\n%s", farSweep[0], src)
	}
	if fired[farSweep[len(farSweep)-1]] {
		t.Errorf("expected a clean certificate at the %d-page far tier\n%s",
			farSweep[len(farSweep)-1], src)
	}
	if v := tierPropViolation(src); v != "" {
		t.Errorf("known-good program violates the property: %s", v)
	}
}
