package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// TestUniformSubmitShiftKeepsSchedules is a metamorphic relation:
// shifting every submit of a workload by the same Δ shifts its whole
// schedule by Δ. Under every randomConfigs entry, each job's wait
// (start − submit) and run (end − start), its MalleableStart and
// WasMate flags, and the run's pass count stay the same, so every
// slowdown does. Makespan and energy are counted from time 0, not from
// the first submit, so they move with Δ and are not compared.
func TestUniformSubmitShiftKeepsSchedules(t *testing.T) {
	const delta = 1_000_003
	rng := rand.New(rand.NewSource(33))
	starts := 0
	for trial := 0; trial < 150; trial++ {
		spec := randomSpec(rng)
		shifted := spec
		shifted.Jobs = slices.Clone(spec.Jobs)
		for i := range shifted.Jobs {
			shifted.Jobs[i].Submit += delta
		}
		for _, c := range randomConfigs() {
			base, err := Run(spec, c.cfg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.name, err)
			}
			moved, err := Run(shifted, c.cfg)
			if err != nil {
				t.Fatalf("trial %d %s shifted: %v", trial, c.name, err)
			}
			starts += base.MalleableStarts
			if moved.Passes != base.Passes || len(moved.Report.Results) != len(base.Report.Results) {
				t.Fatalf("trial %d %s: shifted run made %d passes over %d results, want %d over %d", trial, c.name,
					moved.Passes, len(moved.Report.Results), base.Passes, len(base.Report.Results))
			}
			for i, b := range base.Report.Results {
				m := moved.Report.Results[i]
				if m.ID != b.ID || m.Wait() != b.Wait() || m.RunTime() != b.RunTime() ||
					m.MalleableStart != b.MalleableStart || m.WasMate != b.WasMate {
					t.Fatalf("trial %d %s: result %d shifted is %+v, unshifted %+v", trial, c.name, i, m, b)
				}
			}
		}
	}
	if starts == 0 {
		t.Fatal("no run made a malleable start: the relation met only static schedules")
	}
}
