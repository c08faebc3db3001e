package experiments

import (
	"strings"
	"sync"
	"testing"

	"memhogs/internal/footprint"
	"memhogs/internal/rt"
)

// quickTierCert runs the quick cross-validation once; the all-DRAM
// and two-tier tests below read the same 120 cells.
var quickTierCert = sync.OnceValues(func() (*TierCertCrossValidation, error) {
	return RunTierCertCrossValidation(Quick())
})

func tierCertOrFatal(t *testing.T) *TierCertCrossValidation {
	t.Helper()
	cv, err := quickTierCert()
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * len(certModes) * len(TieringRatios); len(cv.Rows) != want {
		t.Fatalf("got %d cells, want %d", len(cv.Rows), want)
	}
	return cv
}

// TestCertCrossValidation is the all-DRAM acceptance check, read off
// the 1:0 cells of the tiered harness: every benchmark × mode's
// flight-recorded peak is non-empty and certified, the far tier stays
// exactly empty, and the buffered version certifies below O unclamped
// on the benchmarks whose schedules stream. Soundness and 1:0
// tightness are part of Validate, which TestTierCertCrossValidation
// runs over every ratio.
func TestCertCrossValidation(t *testing.T) {
	cv := tierCertOrFatal(t)

	byCell := map[string]TierCertCell{}
	cells := 0
	for _, c := range cv.Rows {
		if c.FarPages != 0 {
			continue
		}
		cells++
		byCell[c.Bench+"/"+c.Mode.String()] = c
		if c.ObservedPeak <= 0 {
			t.Errorf("%s/%s@%s: flight recorder observed no resident pages", c.Bench, c.Mode, c.Ratio)
		}
		if c.CertifiedPages <= 0 {
			t.Errorf("%s/%s@%s: empty certificate", c.Bench, c.Mode, c.Ratio)
		}
		if c.FarCertified != 0 || c.ObservedFarPeak != 0 {
			t.Errorf("%s/%s@%s: 1:0 baseline has far cert %d / far obs %d, want 0/0",
				c.Bench, c.Mode, c.Ratio, c.FarCertified, c.ObservedFarPeak)
		}
	}
	if want := 6 * len(certModes); cells != want {
		t.Fatalf("got %d 1:0 cells, want %d", cells, want)
	}

	// The buffered version must certify strictly below the clamp on
	// the benchmarks whose schedules stream (the point of the paper).
	for _, bench := range []string{"matvec", "embar"} {
		b := byCell[bench+"/B"]
		o := byCell[bench+"/O"]
		if b.Clamped || b.CertifiedPages >= o.CertifiedPages {
			t.Errorf("%s: B certificate %d (clamped=%v) should beat O's %d",
				bench, b.CertifiedPages, b.Clamped, o.CertifiedPages)
		}
	}
}

// TestTierCertCrossValidation is the hogflow acceptance check: in
// every benchmark × mode × DRAM:far ratio cell, the flight-recorded
// peaks of both tiers must stay at or below their certificates, the
// non-releasing versions must observe an exactly empty far tier, the
// affine benchmarks' non-releasing certificates must be tight at 1:0,
// and HV014 must fire exactly on the buffered cells whose certified
// far bound outgrows the configured tier.
func TestTierCertCrossValidation(t *testing.T) {
	cv := tierCertOrFatal(t)
	if err := cv.Validate(); err != nil {
		t.Errorf("certificate contract violated: %v\n%s", err, FormatTierCertCrossValidation(cv))
	}
	for _, c := range cv.Rows {
		if c.ObservedPeak <= 0 {
			t.Errorf("%s/%s@%s: flight recorder observed no resident pages", c.Bench, c.Mode, c.Ratio)
		}
		if c.CertifiedPages <= 0 {
			t.Errorf("%s/%s@%s: empty certificate", c.Bench, c.Mode, c.Ratio)
		}
	}

	// Non-vacuity: the sweep must exercise both arms of HV014 — at
	// least one buffered cell overflows its far tier and at least one
	// certifies cleanly inside it — and the far tier must actually
	// fill somewhere for the comparison to mean anything.
	var fired, clean, farObserved bool
	for _, c := range cv.Rows {
		if c.Version == footprint.VersionB && c.FarPages > 0 {
			if c.HV014 {
				fired = true
			} else {
				clean = true
			}
		}
		if c.ObservedFarPeak > 0 {
			farObserved = true
		}
	}
	if !fired || !clean {
		t.Errorf("vacuous HV014 sweep: fired=%v clean=%v\n%s",
			fired, clean, FormatTierCertCrossValidation(cv))
	}
	if !farObserved {
		t.Error("vacuous run: no cell ever placed a page in the far tier")
	}

	out := FormatTierCertCrossValidation(cv).String()
	for _, col := range []string{"dram cert", "far cert", "tight", "HV014"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing column %q:\n%s", col, out)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("table shows violated cells:\n%s", out)
	}
}

// TestModeVersion pins the mode → certificate-version mapping over
// every run-time mode, in particular that Reactive is judged by the
// resident (P) interpretation: it compiles with release hints but
// never issues them pro-actively, so the buffered (B) bound would be
// unsound for its DRAM side and too generous for its far side.
func TestModeVersion(t *testing.T) {
	want := map[rt.Mode]footprint.Version{
		rt.ModeOriginal:   footprint.VersionO,
		rt.ModePrefetch:   footprint.VersionP,
		rt.ModeAggressive: footprint.VersionR,
		rt.ModeReactive:   footprint.VersionP,
		rt.ModeBuffered:   footprint.VersionB,
	}
	if len(certModes) != len(want) {
		t.Fatalf("certModes has %d modes, want all %d", len(certModes), len(want))
	}
	for _, m := range certModes {
		if got := modeVersion(m); got != want[m] {
			t.Errorf("modeVersion(%v) = %v, want %v", m, got, want[m])
		}
	}
}

// TestTierModeVersion checks that the tiering sweep runs no mode the
// certificate harness leaves unjudged: every mode in TieringModes is
// on the cross-validation's mode axis, so each tiering cell has a
// certified counterpart at every ratio.
func TestTierModeVersion(t *testing.T) {
	onAxis := map[rt.Mode]bool{}
	for _, m := range certModes {
		onAxis[m] = true
	}
	for _, m := range TieringModes {
		if !onAxis[m] {
			t.Errorf("tiering mode %v is not on the certificate mode axis", m)
		}
	}
}
