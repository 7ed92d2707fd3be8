// Package sched implements the paper's scheduling layer: the static
// conservative-backfill baseline and SD-Policy on top of it (Listings
// 1-3), driven by the discrete-event engine over the cluster, node
// manager and runtime model substrates.
package sched

import (
	"fmt"
	"math"

	"sdpolicy/internal/apps"
	"sdpolicy/internal/job"
	"sdpolicy/internal/model"
)

// PolicyKind selects the scheduling policy.
type PolicyKind uint8

const (
	// StaticBackfill is the baseline: conservative backfill with
	// reservations, no malleability.
	StaticBackfill PolicyKind = iota
	// SDPolicy is the paper's contribution: static trial first, then the
	// malleable co-scheduling trial of Listing 1.
	SDPolicy
	// Oversubscribe is the static resource-sharing family the paper
	// positions SD-Policy against (§1, §5: gang scheduling /
	// co-scheduling with oversubscription): jobs share nodes without
	// adapting, so every co-resident pays a context-switching and
	// contention penalty on top of the halved resources. Works on any
	// job kind; uses no DROM adaptation.
	Oversubscribe
)

// String returns the policy name.
func (p PolicyKind) String() string {
	switch p {
	case StaticBackfill:
		return "static-backfill"
	case SDPolicy:
		return "sd-policy"
	case Oversubscribe:
		return "oversubscribe"
	}
	return fmt.Sprintf("PolicyKind(%d)", uint8(p))
}

// CutoffKind selects how MAX_SLOWDOWN is determined (Section 3.2.2).
type CutoffKind uint8

const (
	// CutoffStatic uses the fixed MaxSlowdown value.
	CutoffStatic CutoffKind = iota
	// CutoffDynAvg recomputes the cut-off as the mean predicted slowdown
	// of running jobs at every pass (DynAVGSD).
	CutoffDynAvg
	// CutoffDynMedian uses the median instead (analysed in the paper,
	// "did not report improvement overall").
	CutoffDynMedian
	// CutoffDynP70 uses the 70th percentile (also analysed).
	CutoffDynP70
)

// String returns the cut-off strategy name.
func (c CutoffKind) String() string {
	switch c {
	case CutoffStatic:
		return "static"
	case CutoffDynAvg:
		return "dyn-avg"
	case CutoffDynMedian:
		return "dyn-median"
	case CutoffDynP70:
		return "dyn-p70"
	}
	return fmt.Sprintf("CutoffKind(%d)", uint8(c))
}

// Config parameterises one simulation run.
type Config struct {
	// Policy is the scheduling policy; default StaticBackfill.
	Policy PolicyKind
	// MaxSlowdown is the static MAX_SLOWDOWN cut-off P of Eq. 2.
	// +Inf (the default via Defaults) disables the cut-off ("MAXSD
	// infinite").
	MaxSlowdown float64
	// Cutoff selects static or feedback-driven MAX_SLOWDOWN.
	Cutoff CutoffKind
	// QueueMaxSlowdown overrides MaxSlowdown per submission queue (QoS
	// policies, §4.1). Jobs whose queue is absent use MaxSlowdown. The
	// override applies to the cut-off used while scheduling that job as
	// a guest; it has no effect with a dynamic Cutoff.
	QueueMaxSlowdown map[string]float64
	// SharingFactor bounds what a shrunk mate cedes (Section 3.3);
	// the paper's value for two-socket nodes is 0.5.
	SharingFactor float64
	// MaxMates is m, the largest mate combination searched; the paper
	// found no benefit beyond 2.
	MaxMates int
	// CandidateCap is nm, the maximum number of lowest-penalty mates the
	// heuristic considers.
	CandidateCap int
	// RuntimeModel is the model jobs actually follow in simulation
	// (Figure 8 compares Ideal and WorstCase; App for the real-run
	// emulation).
	RuntimeModel model.Kind
	// BackfillDepth caps how many queued jobs one pass examines
	// (SLURM bf_max_job_test).
	BackfillDepth int
	// ReservationDepth caps how many waiting jobs hold a future
	// reservation. BackfillDepth (the default, set by Defaults) gives
	// conservative backfill; 1 gives the EASY variant where only the
	// queue head is protected from starvation.
	ReservationDepth int
	// IncludeFreeNodes lets mate combinations mix in currently free
	// nodes (Section 3.2.4 option).
	IncludeFreeNodes bool
	// OversubPenalty is the fractional throughput loss each job suffers
	// while sharing a node under the Oversubscribe policy (context
	// switching, cache thrashing). Ignored by the other policies.
	OversubPenalty float64
	// DROMOverhead is the simulated seconds per mask reconfiguration.
	DROMOverhead int64
	// Speedups provides per-application speedup curves for the App
	// runtime model; nil selects a linear curve.
	Speedups func(job.AppClass) model.SpeedupFn
	// CheckpointEvents is how many simulation events RunContext
	// processes between context-cancellation checks; 0 selects
	// sim.DefaultCheckpoint. Smaller values tighten cancellation
	// latency at a (tiny) per-event cost.
	CheckpointEvents uint64
	// Observer, when non-nil, receives scheduling events as they happen
	// (job starts, reconfigurations, completions, usage changes) for
	// trace recording and live analysis.
	Observer Observer
	// EnergyIdleNodeW and EnergyCoreW parameterise the power model.
	EnergyIdleNodeW float64
	EnergyCoreW     float64
}

// Defaults returns the configuration used throughout the paper's
// simulations: static backfill baseline, SharingFactor 0.5, m=2,
// worst-case predictions, no cut-off.
func Defaults() Config {
	return Config{
		Policy:           StaticBackfill,
		MaxSlowdown:      math.Inf(1),
		Cutoff:           CutoffStatic,
		SharingFactor:    0.5,
		MaxMates:         2,
		CandidateCap:     64,
		RuntimeModel:     model.Ideal,
		BackfillDepth:    100,
		ReservationDepth: 100,
		EnergyIdleNodeW:  0, // filled by Run from energy defaults
		EnergyCoreW:      0,
	}
}

// Validate reports the first invalid field.
func (c *Config) Validate() error {
	switch {
	case c.SharingFactor <= 0 || c.SharingFactor >= 1:
		return fmt.Errorf("sched: sharing factor %v out of (0,1)", c.SharingFactor)
	case c.MaxMates < 1:
		return fmt.Errorf("sched: max mates %d < 1", c.MaxMates)
	case c.CandidateCap < 1:
		return fmt.Errorf("sched: candidate cap %d < 1", c.CandidateCap)
	case c.BackfillDepth < 1:
		return fmt.Errorf("sched: backfill depth %d < 1", c.BackfillDepth)
	case c.ReservationDepth < 1:
		return fmt.Errorf("sched: reservation depth %d < 1", c.ReservationDepth)
	case c.MaxSlowdown <= 0:
		return fmt.Errorf("sched: max slowdown %v <= 0", c.MaxSlowdown)
	case c.DROMOverhead < 0:
		return fmt.Errorf("sched: negative DROM overhead %d", c.DROMOverhead)
	case c.OversubPenalty < 0 || c.OversubPenalty >= 1:
		return fmt.Errorf("sched: oversubscription penalty %v out of [0,1)", c.OversubPenalty)
	}
	return nil
}

// Options is the one spelling of a scheduler configuration shared by
// every caller: the campaign point wire form, the library API and
// sdsim's flags. The zero value simulates the static
// conservative-backfill baseline under the ideal runtime model.
type Options struct {
	// Policy is "static" (default), "sd", or "oversubscribe" — the
	// non-adaptive node-sharing baseline of the paper's related work.
	Policy string `json:"policy,omitempty"`
	// MaxSlowdown is the static MAX_SLOWDOWN cut-off; 0 means infinite.
	MaxSlowdown float64 `json:"max_slowdown,omitempty"`
	// DynamicCutoff selects feedback cut-offs: "" (static), "avg"
	// (DynAVGSD), "median", or "p70".
	DynamicCutoff string `json:"dynamic_cutoff,omitempty"`
	// Model is "ideal" (default), "worst", or "app".
	Model string `json:"model,omitempty"`
	// SharingFactor defaults to Defaults().SharingFactor.
	SharingFactor float64 `json:"sharing_factor,omitempty"`
	// MaxMates defaults to Defaults().MaxMates.
	MaxMates int `json:"max_mates,omitempty"`
	// CandidateCap defaults to Defaults().CandidateCap.
	CandidateCap int `json:"candidate_cap,omitempty"`
	// BackfillDepth defaults to Defaults().BackfillDepth.
	BackfillDepth int `json:"backfill_depth,omitempty"`
	// Backfill selects the reservation discipline: "conservative"
	// (default — every examined waiting job holds a reservation) or
	// "easy" (only the queue head does).
	Backfill string `json:"backfill,omitempty"`
	// IncludeFreeNodes enables mixing free nodes into mate selections.
	IncludeFreeNodes bool `json:"include_free_nodes,omitempty"`
	// DROMOverhead is the simulated seconds per reconfiguration.
	DROMOverhead int64 `json:"drom_overhead,omitempty"`
	// OversubPenalty is the fractional throughput loss per shared job
	// under the "oversubscribe" policy (default 0.15).
	OversubPenalty float64 `json:"oversub_penalty,omitempty"`
}

// Canonical fills every defaulted field with its effective value, so
// equal configurations compare equal and Options values are usable as
// cache keys. Numeric defaults come from Defaults; a non-positive (or
// NaN) value selects the default.
func (o Options) Canonical() Options {
	d := Defaults()
	if o.Policy == "" {
		o.Policy = "static"
	}
	if !(o.MaxSlowdown > 0) {
		o.MaxSlowdown = d.MaxSlowdown
	}
	if o.Model == "" {
		o.Model = "ideal"
	}
	if !(o.SharingFactor > 0) {
		o.SharingFactor = d.SharingFactor
	}
	if o.MaxMates <= 0 {
		o.MaxMates = d.MaxMates
	}
	if o.CandidateCap <= 0 {
		o.CandidateCap = d.CandidateCap
	}
	if o.BackfillDepth <= 0 {
		o.BackfillDepth = d.BackfillDepth
	}
	if o.Backfill == "" {
		o.Backfill = "conservative"
	}
	if o.Policy == "oversubscribe" && !(o.OversubPenalty > 0) {
		o.OversubPenalty = 0.15
	}
	return o
}

// Config converts the canonical options to a runnable Config. It
// rejects unknown names; numeric ranges are left to Config.Validate.
func (o Options) Config() (Config, error) {
	o = o.Canonical()
	cfg := Defaults()
	switch o.Policy {
	case "static":
		cfg.Policy = StaticBackfill
	case "sd":
		cfg.Policy = SDPolicy
	case "oversubscribe":
		cfg.Policy = Oversubscribe
		cfg.OversubPenalty = o.OversubPenalty
	default:
		return cfg, fmt.Errorf("unknown policy %q", o.Policy)
	}
	switch o.DynamicCutoff {
	case "":
	case "avg":
		cfg.Cutoff = CutoffDynAvg
	case "median":
		cfg.Cutoff = CutoffDynMedian
	case "p70":
		cfg.Cutoff = CutoffDynP70
	default:
		return cfg, fmt.Errorf("unknown dynamic cutoff %q", o.DynamicCutoff)
	}
	switch o.Model {
	case "ideal":
		cfg.RuntimeModel = model.Ideal
	case "worst":
		cfg.RuntimeModel = model.WorstCase
	case "app":
		cfg.RuntimeModel = model.App
		cfg.Speedups = apps.SpeedupProvider
	default:
		return cfg, fmt.Errorf("unknown model %q", o.Model)
	}
	switch o.Backfill {
	case "conservative":
		cfg.ReservationDepth = o.BackfillDepth
	case "easy":
		cfg.ReservationDepth = 1
	default:
		return cfg, fmt.Errorf("unknown backfill discipline %q", o.Backfill)
	}
	cfg.MaxSlowdown = o.MaxSlowdown
	cfg.SharingFactor = o.SharingFactor
	cfg.MaxMates = o.MaxMates
	cfg.CandidateCap = o.CandidateCap
	cfg.BackfillDepth = o.BackfillDepth
	cfg.IncludeFreeNodes = o.IncludeFreeNodes
	cfg.DROMOverhead = o.DROMOverhead
	return cfg, nil
}
