package experiments

import (
	"fmt"

	"memhogs/internal/compiler"
	"memhogs/internal/driver"
	"memhogs/internal/events"
	"memhogs/internal/footprint"
	"memhogs/internal/hogvet"
	"memhogs/internal/kernel"
	"memhogs/internal/metrics"
	"memhogs/internal/rt"
	"memhogs/internal/workload"
)

// certTightFrac is the declared tightness slack for the residency
// certificates: on the affine benchmarks, in the modes the certificate
// judges as never releasing, the observed peak must come within 15% of
// the certified bound. It is declared at the all-DRAM 1:0 ratio only:
// with a far tier the DRAM share shrinks and the pipeline slack is a
// larger part of the bound (matvec/P at 1:3 observes 83% on the quick
// machine). The releasing versions' certificates are sound upper bounds
// with deliberate pipeline slack, so tightness is not declared for them.
const certTightFrac = 0.85

// affineBenches are the benchmarks whose certificates carry no ⊤
// windows at paper scale: every reference is affine with
// compile-time-known strides, so the bound is exact analysis, not a
// whole-array fallback.
var affineBenches = map[string]bool{"matvec": true, "embar": true}

// certModes is the cross-validation's mode axis: the paper's O/P/R/B
// bars plus Reactive, which the tiering campaign adds.
var certModes = []rt.Mode{rt.ModeOriginal, rt.ModePrefetch, rt.ModeAggressive, rt.ModeReactive, rt.ModeBuffered}

// modeVersion maps a run-time mode to the certificate interpretation
// that soundly bounds it. Reactive compiles with release hints (so its
// schedule is the same as Buffered's) but never issues a release
// pro-actively at run time — pages leave only via daemon donation,
// which bypasses the releaser's demotion path — so its resident set is
// bounded by the P (everything-stays) interpretation and its far-tier
// occupancy is exactly zero, which VersionP's empty far certificate
// states.
func modeVersion(m rt.Mode) footprint.Version {
	switch m {
	case rt.ModeOriginal:
		return footprint.VersionO
	case rt.ModePrefetch, rt.ModeReactive:
		return footprint.VersionP
	case rt.ModeAggressive:
		return footprint.VersionR
	default:
		return footprint.VersionB
	}
}

// CertifyAtRatio compiles spec with the full hint schedule against the
// DRAM share of kcfg's memory budget split at ratio, and certifies all
// four versions against that split: the DRAM peaks and, when the ratio
// leaves a far share, the far-tier occupancy and demotion-flow bounds.
// At 1:0 it is the all-DRAM certificate. footprint.Report renders the
// result.
func CertifyAtRatio(spec *workload.Spec, kcfg kernel.Config, ratio TierRatio) (map[footprint.Version]*footprint.Certificate, error) {
	dram, far := ratio.Split(kcfg.UserMemPages)
	tgt := compiler.DefaultTarget(kcfg.PageSize, dram)
	prog := spec.Program(nil)
	comp, err := compiler.Compile(prog, tgt)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", spec.Name, err)
	}
	opts := footprint.Opts{Params: spec.Params, FarPages: far, FarMinPrio: kcfg.Far.MinPrio}
	certs := map[footprint.Version]*footprint.Certificate{}
	for _, v := range footprint.Versions() {
		certs[v] = footprint.Certify(prog, tgt, comp.Hints(), v, opts)
	}
	return certs, nil
}

// TierCertCell is one benchmark × mode × DRAM:far ratio of the
// static-vs-dynamic residency comparison.
type TierCertCell struct {
	Bench   string
	Mode    rt.Mode
	Version footprint.Version
	Ratio   TierRatio

	DRAMPages int // DRAM share of the split budget
	FarPages  int // far share (0 at the 1:0 baseline)

	BoundPages      int64 // interpreted DRAM bound (-1 unresolved)
	CertifiedPages  int64 // clamped DRAM certificate
	Clamped         bool  // the DRAM bound hit the allotment
	FarBoundPages   int64 // interpreted far-tier bound (-1 unresolved)
	FarCertified    int64 // far bound clamped at the tier size
	ObservedPeak    int64 // flight-recorded peak resident (DRAM) pages
	ObservedFarPeak int64 // flight-recorded peak far-tier pages

	SoundDRAM     bool // ObservedPeak ≤ CertifiedPages
	SoundFar      bool // ObservedFarPeak ≤ FarCertified
	TightDeclared bool // this cell is under the 15% tightness contract
	Tight         bool // ObservedPeak ≥ certTightFrac · CertifiedPages
	HV014         bool // hogvet's far-overflow fired for this cell's schedule
}

// TierCertCrossValidation is the dataset behind the residency
// certificate validation: every benchmark × mode × DRAM:far ratio
// cell, run under the flight recorder, next to its DRAM and far-tier
// certificates.
type TierCertCrossValidation struct {
	Opts Opts
	Rows []TierCertCell // spec-major, mode-middle, ratio-minor
}

// RunTierCertCrossValidation closes the loop on the certificates:
// every benchmark × certModes × TieringRatios cell is certified
// statically against the split budget and run once with the flight
// recorder installed, comparing both tiers' observed peaks against
// their certificates. One job per cell runs on the campaign worker
// pool; rows land in pre-allocated slots, so the result is identical
// at any worker count.
func RunTierCertCrossValidation(o Opts) (*TierCertCrossValidation, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	kcfg := o.kernelConfig()
	sink := newProgressSink(o.Progress)
	cache := driver.NewCompileCache()
	stride := len(certModes) * len(TieringRatios)
	slots := make([]TierCertCell, len(specs)*stride)
	var jobs []job
	for i, spec := range specs {
		for j, mode := range certModes {
			for k, ratio := range TieringRatios {
				slot := &slots[i*stride+j*len(TieringRatios)+k]
				spec, mode, ratio := spec, mode, ratio
				jobs = append(jobs, job{
					label: fmt.Sprintf("tiercert %s/%s@%s", spec.Name, mode, ratio),
					run: func() error {
						// The certificate interprets the same compilation the
						// run executes, against the same split budget.
						dram, far := ratio.Split(kcfg.UserMemPages)
						tgt := compiler.DefaultTarget(kcfg.PageSize, dram)
						tgt.Prefetch = mode.UsesPrefetch()
						tgt.Release = mode.UsesRelease()
						comp, err := cache.Compile(spec, nil, tgt)
						if err != nil {
							return fmt.Errorf("compile %s: %w", spec.Name, err)
						}
						ver := modeVersion(mode)
						fopts := footprint.Opts{Params: spec.Params, FarPages: far, FarMinPrio: kcfg.Far.MinPrio}
						cert := footprint.Certify(comp.Prog, tgt, comp.Hints(), ver, fopts)

						// hogvet's far-overflow verdict for the cell, through
						// the verifier's own path.
						hv014 := false
						if far > 0 && len(comp.Hints()) > 0 {
							vopts := hogvet.DefaultOptions()
							vopts.Params = spec.Params
							vopts.FarPages = far
							vopts.FarMinPrio = kcfg.Far.MinPrio
							for _, d := range hogvet.VetSchedule(comp.Prog, tgt, comp.Hints(), vopts) {
								if d.Code == "HV014" {
									hv014 = true
								}
							}
						}

						cfg := o.tieringConfig(mode, ratio)
						cfg.Cache = cache
						cfg.OnSystem = func(sys *kernel.System) {
							sys.SetEvents(events.New(sys.Sim, 1<<16))
						}
						r, err := driver.Run(spec, cfg)
						if err != nil {
							return fmt.Errorf("tiercert %s/%s@%s: %w", spec.Name, mode, ratio, err)
						}

						cell := TierCertCell{
							Bench:           spec.Name,
							Mode:            mode,
							Version:         ver,
							Ratio:           ratio,
							DRAMPages:       dram,
							FarPages:        far,
							BoundPages:      cert.BoundPages,
							CertifiedPages:  cert.CertifiedPages,
							Clamped:         cert.Clamped,
							FarBoundPages:   cert.FarBoundPages,
							FarCertified:    cert.FarCertifiedPages,
							ObservedPeak:    r.VM.PeakResident,
							ObservedFarPeak: r.VM.PeakFarResident,
							HV014:           hv014,
						}
						cell.SoundDRAM = cell.ObservedPeak <= cell.CertifiedPages
						cell.SoundFar = cell.ObservedFarPeak <= cell.FarCertified
						cell.TightDeclared = affineBenches[spec.Name] && !ver.UsesRelease() && far == 0
						cell.Tight = float64(cell.ObservedPeak) >= certTightFrac*float64(cell.CertifiedPages)
						*slot = cell
						sink.printf("tiercert %s/%s@%s: dram %d/%d, far %d/%d\n",
							spec.Name, mode, ratio, cell.ObservedPeak, cell.CertifiedPages,
							cell.ObservedFarPeak, cell.FarCertified)
						return nil
					},
				})
			}
		}
	}
	if err := runJobs(o, jobs); err != nil {
		return nil, err
	}
	return &TierCertCrossValidation{Opts: o, Rows: slots}, nil
}

// Validate returns the first violated contract: every cell must be
// sound on both tiers, the versions that never release must observe
// an exactly empty far tier (their far certificate is zero), the
// declared cells must be tight within the 15% slack, and hogvet's
// HV014 verdict must agree with the certificate's far bound against
// the configured tier size.
func (cv *TierCertCrossValidation) Validate() error {
	for _, c := range cv.Rows {
		if !c.SoundDRAM {
			return fmt.Errorf("%s/%s@%s: observed DRAM peak %d pages exceeds certified %d",
				c.Bench, c.Mode, c.Ratio, c.ObservedPeak, c.CertifiedPages)
		}
		if !c.SoundFar {
			return fmt.Errorf("%s/%s@%s: observed far peak %d pages exceeds certified %d",
				c.Bench, c.Mode, c.Ratio, c.ObservedFarPeak, c.FarCertified)
		}
		if !c.Version.UsesRelease() {
			if c.FarCertified != 0 {
				return fmt.Errorf("%s/%s@%s: non-releasing version certifies far peak %d, want 0",
					c.Bench, c.Mode, c.Ratio, c.FarCertified)
			}
			if c.ObservedFarPeak != 0 {
				return fmt.Errorf("%s/%s@%s: non-releasing version demoted %d pages to the far tier",
					c.Bench, c.Mode, c.Ratio, c.ObservedFarPeak)
			}
		}
		if c.TightDeclared && !c.Tight {
			return fmt.Errorf("%s/%s@%s: certificate %d pages is not tight: observed peak %d below %d%% slack",
				c.Bench, c.Mode, c.Ratio, c.CertifiedPages, c.ObservedPeak, int(100*(1-certTightFrac)))
		}
		wantHV014 := c.FarPages > 0 && c.FarBoundPages >= 0 && c.FarBoundPages > int64(c.FarPages) &&
			c.Version == footprint.VersionB
		if c.Version == footprint.VersionB && c.HV014 != wantHV014 {
			return fmt.Errorf("%s/%s@%s: HV014 fired=%v, but far bound %d vs tier %d says %v",
				c.Bench, c.Mode, c.Ratio, c.HV014, c.FarBoundPages, c.FarPages, wantHV014)
		}
	}
	return nil
}

// FormatTierCertCrossValidation renders the static-vs-dynamic
// residency table: one row per benchmark × mode × ratio.
func FormatTierCertCrossValidation(cv *TierCertCrossValidation) *metrics.Table {
	t := metrics.NewTable("hogflow cross-validation: certified vs observed peak pages, per tier",
		"benchmark", "mode", "version", "ratio", "dram bound", "dram cert", "dram obs",
		"far cert", "far obs", "sound", "tight", "HV014")
	for _, c := range cv.Rows {
		bound := fmt.Sprintf("%d", c.BoundPages)
		if c.BoundPages < 0 {
			bound = "?"
		}
		if c.Clamped {
			bound += " (clamped)"
		}
		sound := "yes"
		if !c.SoundDRAM || !c.SoundFar {
			sound = "NO"
		}
		tight := "-"
		if c.TightDeclared {
			tight = "yes"
			if !c.Tight {
				tight = "NO"
			}
		}
		hv := "-"
		if c.HV014 {
			hv = "fires"
		}
		t.AddRow(c.Bench, c.Mode.String(), c.Version.String(), c.Ratio.String(), bound,
			c.CertifiedPages, c.ObservedPeak, c.FarCertified, c.ObservedFarPeak, sound, tight, hv)
	}
	t.AddNote("Sound: neither tier's flight-recorded peak exceeds its certificate.")
	t.AddNote(fmt.Sprintf("Tight (affine benchmarks, non-releasing versions, 1:0): observed within %d%% of certified.",
		int(100*(1-certTightFrac))))
	t.AddNote("HV014: hogvet proves the far-tier bound exceeds the configured tier at this ratio.")
	return t
}
