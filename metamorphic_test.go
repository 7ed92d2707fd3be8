package sdpolicy

import (
	"bytes"
	"testing"
)

// Metamorphic relations from the paper's definitions and the derivation
// ops. Unlike the golden files, they do not depend on the code's own
// past output: each runs today's code twice, on inputs whose schedules
// the definitions say must be the same, and compares the per-job
// reports (submit, start, end, nodes and the malleability flags of
// every job) byte for byte.

// metamorphicScale keeps all five presets to about a second together.
const metamorphicScale = 0.05

// reportOf simulates w under opt and returns the per-job report.
func reportOf(t *testing.T, w Workload, opt Options) []byte {
	t.Helper()
	res, err := Simulate(w, opt)
	if err != nil {
		t.Fatalf("%s %+v: %v", w.Name(), opt, err)
	}
	report, err := res.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestScaleLoadByOneIsIdentity: scale_load divides every submit time by
// its factor, so a factor of 1 leaves the arrival stream, and with it
// every job's schedule, as it was, under static backfill, SD with
// MAXSD 10 and SD with the DynAVGSD cut-off.
func TestScaleLoadByOneIsIdentity(t *testing.T) {
	for _, name := range WorkloadNames() {
		base, err := NewWorkload(name, metamorphicScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := base.Derive(ScaleLoadDerivation(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{
			{Policy: "static"},
			{Policy: "sd", MaxSlowdown: 10},
			{Policy: "sd", DynamicCutoff: "avg"},
		} {
			if !bytes.Equal(reportOf(t, base, opt), reportOf(t, scaled, opt)) {
				t.Errorf("%s %+v: scale_load by 1 changed the schedule", name, opt)
			}
		}
	}
}

// TestRigidSDIsStaticBackfill: with no malleable job, SD-Policy has no
// guest to co-schedule and no mate to shrink, so on a workload whose
// malleable fraction is 0, SD with MAXSD 10 starts, ends and places
// every job as static backfill does.
func TestRigidSDIsStaticBackfill(t *testing.T) {
	for _, name := range WorkloadNames() {
		base, err := NewWorkload(name, metamorphicScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		rigid, err := base.Derive(MalleableFractionDerivation(0))
		if err != nil {
			t.Fatal(err)
		}
		static := reportOf(t, rigid, Options{Policy: "static"})
		if sd := reportOf(t, rigid, Options{Policy: "sd", MaxSlowdown: 10}); !bytes.Equal(sd, static) {
			t.Errorf("%s: SD with no malleable job scheduled differently from static backfill", name)
		}
	}
}
