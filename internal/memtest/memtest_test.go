package memtest

import (
	"testing"

	"memhogs/internal/shrink"
)

func fails(cand []Op) bool {
	_, err := Run(cand)
	return err != nil
}

// TestTierInvariants is the tier property test: randomized
// demote/promote/release/fault sequences against a real far-tiered
// system, auditing after every op. A failing seed is greedily shrunk
// to a minimal op sequence and reported as a pasteable repro. The
// accumulated far-tier traffic across the seed set must be nonzero in
// every direction, or the property was never exercised.
func TestTierInvariants(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	var demotions, promotions, full int64
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		ops := RandomOps(seed, 120)
		fs, err := Run(ops)
		demotions += fs.Demotions
		promotions += fs.Promotions
		full += fs.DemoteFull
		if err == nil {
			continue
		}
		min := shrink.Shrink(ops, fails)
		_, minErr := Run(min)
		t.Fatalf("seed %d: %v\nshrunk to %d ops (from %d): %v\nrepro: %s",
			seed, err, len(min), len(ops), minErr, Repro(min))
	}
	if demotions == 0 || promotions == 0 || full == 0 {
		t.Fatalf("vacuous seed set: %d demotions, %d promotions, %d tier-full rejections",
			demotions, promotions, full)
	}
}

// TestTierRoundTripDirty pins one concrete contents-survival case:
// write (dirty), queued release at priority 3 (demotes dirty), touch
// (promotes, dirty bit must come back). The harness's in-sequence
// checks fail the Run if the bit is lost.
func TestTierRoundTripDirty(t *testing.T) {
	fs, err := Run(MustParseOps("w5 q5:3 t5"))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Demotions != 1 || fs.Promotions != 1 {
		t.Fatalf("round-trip ran %d demotions / %d promotions, want 1/1", fs.Demotions, fs.Promotions)
	}
	// Priority 0 must NOT demote: the page goes to swap and the next
	// touch is a disk fault, not a far hit.
	fs, err = Run(MustParseOps("w5 q5:0 t5"))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Demotions != 0 {
		t.Fatalf("priority-0 release demoted %d pages, want 0", fs.Demotions)
	}
}

// TestOpsStringRoundTrip pins the repro encoding: parse(render(ops))
// must be identity, so a shrunk failure replays exactly.
func TestOpsStringRoundTrip(t *testing.T) {
	ops := RandomOps(3, 50)
	parsed, err := ParseOps(OpsString(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(ops) {
		t.Fatalf("round-trip length %d, want %d", len(parsed), len(ops))
	}
	for i := range ops {
		if parsed[i] != ops[i] {
			t.Fatalf("op %d round-trips to %v, want %v", i, parsed[i], ops[i])
		}
	}
	if _, err := ParseOps("z9"); err == nil {
		t.Fatal("unknown op kind parsed without error")
	}
	if _, err := ParseOps("q5"); err == nil {
		t.Fatal("queued release without priority parsed without error")
	}
}

// TestShrinkMinimizes checks the shrinker on a synthetic predicate:
// failure iff the sequence still contains both a demote of page 1 and
// a touch of page 2 — the minimal failing sequence is exactly those
// two ops, in order.
func TestShrinkMinimizes(t *testing.T) {
	ops := MustParseOps("t0 d1 w3 t2 p4 q5:1")
	fails := func(cand []Op) bool {
		var d, to bool
		for _, op := range cand {
			if op.Kind == 'd' && op.VPN == 1 {
				d = true
			}
			if op.Kind == 't' && op.VPN == 2 {
				to = true
			}
		}
		return d && to
	}
	min := shrink.Shrink(ops, fails)
	if got := OpsString(min); got != "d1 t2" {
		t.Fatalf("shrunk to %q, want \"d1 t2\"", got)
	}
}
