// Package sdpolicy is the public API of the SD-Policy reproduction: a
// discrete-event HPC scheduling laboratory implementing the Slowdown
// Driven (SD) malleable-job policy of D'Amico, Jokanovic and Corbalan
// (ICPP 2019) next to a conservative-backfill baseline, the DROM
// node-level malleability substrate, the paper's runtime models, workload
// generators for its five evaluation workloads, and the metrics needed to
// regenerate every table and figure of the paper.
//
// Quick start:
//
//	w, _ := sdpolicy.NewWorkload("wl5", 0.5, 1)
//	static, _ := sdpolicy.Simulate(w, sdpolicy.Options{Policy: "static"})
//	sd, _ := sdpolicy.Simulate(w, sdpolicy.Options{Policy: "sd", MaxSlowdown: 10})
//	fmt.Println(static.AvgSlowdown, "->", sd.AvgSlowdown)
//
// # Campaigns
//
// Experiment campaigns — cross products of workloads, scheduler
// variants, seeds and scales — run through an Engine: a worker pool
// that shards the campaign's Points across GOMAXPROCS (or a configured
// number of) workers and memoises results in an LRU cache, so repeated
// points such as the per-workload static baseline simulate exactly
// once. Campaigns are deterministic: results come back in input order
// and a parallel run is byte-identical to a sequential one.
//
//	engine := sdpolicy.NewEngine(8, 512)
//	rows, err := engine.SweepMaxSD(ctx, []string{"wl1", "wl2"}, 0.1, 1)
//
// The package-level experiment functions (SweepMaxSD, Table1,
// CompareRuntimeModels, the ablations, ...) delegate to a process-wide
// Default engine; the Engine methods additionally accept a
// context.Context for cancellation and report progress via OnProgress.
// Cancellation is prompt: the scheduler's event loop checkpoints the
// context (sched.RunContext), so cancelling a campaign aborts even the
// simulation point currently in flight within milliseconds.
// Engine.RunStream streams each point's result on a channel as it
// completes while still returning the deterministic final merge.
// DeriveSeed expands one base seed into independent per-replicate
// seeds for multi-seed campaigns.
//
// # Workloads and derivations
//
// Generated workloads are immutable and cached process-wide keyed by
// (preset, scale, seed); a Workload is a thin handle over the shared
// base plus a chain of Derivations — declarative, JSON-serialisable
// variant operations (SetMalleableFraction, TagNodes, RequireFeature)
// applied copy-on-write at simulation time. Campaign Points carry the
// same chains (NewDerivedPoint), so a k-variant ablation generates its
// base workload exactly once and every labelled sweep is addressable
// as plain points over HTTP. Engine.PersistCache appends each result
// to a log in a cache directory the moment it exists, so repeated
// campaigns survive restarts and crashes.
//
// cmd/sdserve exposes the same engine over HTTP (POST /v1/simulate,
// the /v1/campaigns resources and the /v1/experiments plane), serving
// concurrent clients from one shared result cache.
package sdpolicy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"sdpolicy/internal/metrics"
	"sdpolicy/internal/sched"
	"sdpolicy/internal/workload"
)

// ErrBadInput marks errors caused by invalid caller input (unknown
// preset, policy, model, or out-of-range parameters) as opposed to
// internal simulation failures; test with errors.Is. The sdserve layer
// maps it to HTTP 400.
var ErrBadInput = errors.New("invalid input")

// Derivation is a declarative, JSON-serialisable workload variant
// operation (re-flagging a malleable fraction, tagging nodes with a
// feature, constraining jobs to a feature). A Workload is a thin handle
// over an immutable generated base Spec plus a chain of derivations;
// simulating resolves the chain copy-on-write, so any number of
// variants share one generated base. Build values with
// MalleableFractionDerivation, TagNodesDerivation and
// RequireFeatureDerivation, or decode them from the wire form
// ({"op": ..., "fraction": ..., "feature": ...}).
type Derivation = workload.Derivation

// MalleableFractionDerivation re-flags frac of the jobs (striped
// deterministically by submit order) malleable and the rest rigid.
func MalleableFractionDerivation(frac float64) Derivation {
	return workload.MalleableFraction(frac)
}

// TagNodesDerivation attaches feature to frac of the machine's nodes
// (striped deterministically), making the machine heterogeneous.
func TagNodesDerivation(feature string, frac float64) Derivation {
	return workload.TagNodes(feature, frac)
}

// RequireFeatureDerivation makes frac of the jobs (striped
// deterministically) require feature on every allocated node — the
// constraint-filtering behaviour of Section 3.2.4.
func RequireFeatureDerivation(feature string, frac float64) Derivation {
	return workload.RequireFeature(feature, frac)
}

// ScaleLoadDerivation compresses (factor > 1) or stretches (factor < 1)
// the arrival process: every submit time is divided by factor, so a
// trace replayed with factor 1.5 offers 1.5x its recorded load.
func ScaleLoadDerivation(factor float64) Derivation {
	return workload.ScaleLoad(factor)
}

// ShiftArrivalsDerivation rotates each submit's time-of-day forward by
// shift seconds (diurnal remap) and, when burst > 0, quantises submits
// onto burst-second boundaries (burst injection).
func ShiftArrivalsDerivation(shift, burst int64) Derivation {
	return workload.ShiftArrivals(shift, burst)
}

// AssignQoSDerivation tags frac of the jobs (striped deterministically)
// with the class queue name; queues carry per-queue QoS MAXSD cut-offs
// (paper §4.1).
func AssignQoSDerivation(class string, frac float64) Derivation {
	return workload.AssignQoS(class, frac)
}

// Workload is a machine description plus a job stream, ready to
// simulate. It is a handle: an immutable base Spec — shared with every
// other handle of the same (preset, scale, seed) through a process-wide
// generation cache — plus a private derivation chain describing how
// this variant differs. The SetMalleableFraction / TagNodes /
// RequireFeature methods append derivations instead of mutating the
// base, so deriving is O(chain) until simulation resolves the variant
// copy-on-write.
type Workload struct {
	spec   *workload.Spec // shared immutable base; nil only for the zero value
	derivs []workload.Derivation
}

// NewWorkload builds one of the paper's Table 1 workload presets
// ("wl1".."wl5") or resolves a registered trace ("trace:<digest>", see
// RegisterTrace). scale in (0, 1] shrinks a preset's machine and job
// count proportionally for faster experiments; seed drives the
// deterministic generator. Trace content is fully determined by the
// digest, so scale and seed are ignored for trace refs. Repeated calls
// with equal arguments share one generated Spec through the
// process-wide generation cache — generation runs once, concurrent
// callers coalesce — which is what makes k-variant ablation campaigns
// cost one generation instead of k.
func NewWorkload(name string, scale float64, seed uint64) (Workload, error) {
	if !workload.IsTraceRef(name) && (scale <= 0 || scale > 1) {
		return Workload{}, fmt.Errorf("sdpolicy: scale %v out of (0,1]: %w", scale, ErrBadInput)
	}
	spec, err := workload.Shared.Get(name, scale, seed)
	if err != nil {
		return Workload{}, fmt.Errorf("%w: %w", err, ErrBadInput)
	}
	return Workload{spec: spec}, nil
}

// Derive returns a copy of the workload with the derivations appended
// to its chain, leaving the receiver untouched. It errors (ErrBadInput)
// on structurally invalid derivations; the panicking mutator methods
// remain for the common literal-argument cases.
func (w Workload) Derive(derivs ...Derivation) (Workload, error) {
	for _, d := range derivs {
		if err := d.Validate(); err != nil {
			return Workload{}, fmt.Errorf("sdpolicy: %w: %w", err, ErrBadInput)
		}
	}
	chain := make([]workload.Derivation, 0, len(w.derivs)+len(derivs))
	chain = append(chain, w.derivs...)
	chain = append(chain, derivs...)
	return Workload{spec: w.spec, derivs: chain}, nil
}

// Derivations returns the handle's derivation chain.
func (w Workload) Derivations() []Derivation {
	return append([]Derivation(nil), w.derivs...)
}

// append records one validated derivation, copying the chain so sibling
// handles sharing a backing array never observe each other's appends.
func (w *Workload) append(d workload.Derivation) {
	if err := d.Validate(); err != nil {
		panic(err.Error())
	}
	chain := make([]workload.Derivation, len(w.derivs), len(w.derivs)+1)
	copy(chain, w.derivs)
	w.derivs = append(chain, d)
}

// base returns the spec the derivation chain resolves against; the zero
// Workload resolves against an empty spec (and fails validation at
// simulation time, as it always has).
func (w Workload) base() *workload.Spec {
	if w.spec == nil {
		return &workload.Spec{}
	}
	return w.spec
}

// resolve materialises the variant: the shared base with the derivation
// chain applied copy-on-write. With an empty chain this is the base
// itself — no copy.
func (w Workload) resolve() (*workload.Spec, error) {
	spec, err := workload.Derive(w.base(), w.derivs)
	if err != nil {
		return nil, fmt.Errorf("sdpolicy: %w: %w", err, ErrBadInput)
	}
	return spec, nil
}

// Name returns the workload identifier.
func (w Workload) Name() string { return w.base().Name }

// Jobs returns the number of jobs (invariant under derivations).
func (w Workload) Jobs() int { return len(w.base().Jobs) }

// Nodes returns the machine's node count.
func (w Workload) Nodes() int { return w.base().Cluster.Nodes }

// Cores returns the machine's total core count.
func (w Workload) Cores() int { return w.base().Cluster.TotalCores() }

// MaxJobNodes returns the largest node request in the stream.
func (w Workload) MaxJobNodes() int {
	m := 0
	spec := w.base()
	for i := range spec.Jobs {
		if spec.Jobs[i].ReqNodes > m {
			m = spec.Jobs[i].ReqNodes
		}
	}
	return m
}

// SetMalleableFraction re-flags the given fraction of jobs as malleable
// and the rest rigid (mixed-workload experiments). It records a
// malleable_fraction derivation on this handle; the shared base spec is
// never modified. Panics on a fraction outside [0,1].
func (w *Workload) SetMalleableFraction(frac float64) {
	w.append(workload.MalleableFraction(frac))
}

// TagNodes attaches a feature string (architecture, memory class,
// interconnect, ...) to the given fraction of nodes, making the machine
// heterogeneous. Nodes are tagged deterministically by striping. It
// records a tag_nodes derivation on this handle; the shared base spec
// is never modified. Panics on a fraction outside [0,1].
func (w *Workload) TagNodes(feature string, frac float64) {
	w.append(workload.TagNodes(feature, frac))
}

// RequireFeature makes the given fraction of jobs (striped
// deterministically) require the feature on every allocated node — the
// constraint-filtering behaviour of Section 3.2.4. It records a
// require_feature derivation on this handle; the shared base spec is
// never modified. Panics on a fraction outside [0,1].
func (w *Workload) RequireFeature(feature string, frac float64) {
	w.append(workload.RequireFeature(feature, frac))
}

// AppShares returns the fraction of jobs per application class name —
// the Table 2 composition for the real-run workload. (Derivations never
// change application classes, so the base is authoritative.)
func (w Workload) AppShares() map[string]float64 {
	spec := w.base()
	counts := workload.AppCounts(spec)
	out := make(map[string]float64, len(counts))
	for app, n := range counts {
		out[app.String()] = float64(n) / float64(len(spec.Jobs))
	}
	return out
}

// Options configures one simulation; it is the scheduler's one
// configuration spelling (see sched.Options for the fields and their
// defaults). The zero value simulates the static conservative-backfill
// baseline under the ideal runtime model.
type Options = sched.Options

// Result is the outcome of one simulation.
type Result struct {
	Workload    string  `json:"workload"`
	Policy      string  `json:"policy"`
	Jobs        int     `json:"jobs"`
	Makespan    int64   `json:"makespan"`
	AvgResponse float64 `json:"avg_response"`
	AvgWait     float64 `json:"avg_wait"`
	AvgSlowdown float64 `json:"avg_slowdown"`
	// AvgBoundedSlowdown uses the customary 10-minute bound, damping the
	// influence of sub-bound jobs (Feitelson's metric).
	AvgBoundedSlowdown float64 `json:"avg_bounded_slowdown"`
	// P95Slowdown is the 95th percentile of per-job slowdowns.
	P95Slowdown     float64 `json:"p95_slowdown"`
	EnergyKWh       float64 `json:"energy_kwh"`
	MalleableStarts int     `json:"malleable_starts"`
	Mates           int     `json:"mates"`

	report metrics.Report
	// encoded is the result's JSON encoding. It is set once, when the
	// result is simulated, primed or decoded from the bytes json.Marshal
	// writes (UnmarshalJSON, which is how a cache log entry or a relayed
	// result gets it), and never after: cached results are shared
	// between goroutines.
	encoded []byte
}

// AppendJSON appends the result's JSON encoding, the bytes json.Marshal
// writes for it, to b. A result an Engine returns carries the encoding
// it was given when it entered the engine, and one decoded from those
// bytes keeps them, so serving either encodes nothing again; any other
// result is encoded now.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	if r.encoded != nil {
		return append(b, r.encoded...), nil
	}
	enc, err := json.Marshal(r)
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}

// encode sets the result's encoding. Call it only while the result has
// one owner, before a cache shares it. A result that does not encode
// keeps no encoding, and AppendJSON reports the error.
func (r *Result) encode() {
	r.encoded, _ = json.Marshal(r)
}

// DayPoint is one sample of the Figure 7 per-day series.
type DayPoint struct {
	Day             int
	Jobs            int
	AvgSlowdown     float64
	MalleableStarts int
}

// Daily returns the per-day average slowdown and malleable-start counts.
func (r *Result) Daily() []DayPoint {
	days := r.report.Daily()
	out := make([]DayPoint, len(days))
	for i, d := range days {
		out[i] = DayPoint{Day: d.Day, Jobs: d.Jobs,
			AvgSlowdown: d.AvgSlowdown, MalleableStarts: d.MalleableStarts}
	}
	return out
}

// HeatmapMetric names a per-job quantity for category heatmaps.
type HeatmapMetric string

// Heatmap metrics of Figures 4-6.
const (
	HeatSlowdown HeatmapMetric = "slowdown"
	HeatRunTime  HeatmapMetric = "runtime"
	HeatWait     HeatmapMetric = "wait"
)

func (m HeatmapMetric) internal() metrics.Metric {
	switch m {
	case HeatSlowdown:
		return metrics.MetricSlowdown
	case HeatRunTime:
		return metrics.MetricRunTime
	case HeatWait:
		return metrics.MetricWait
	}
	panic(fmt.Sprintf("sdpolicy: unknown heatmap metric %q", string(m)))
}

// HeatmapRatio returns base/other cell ratios of the metric over (node
// bucket × runtime bucket) job categories — the Figures 4-6 convention
// with r as the static baseline and other as the SD run: values > 1 mean
// SD improved that category. Empty cells are NaN.
func (r *Result) HeatmapRatio(other *Result, m HeatmapMetric) [][]float64 {
	return r.report.NewHeatmap(m.internal()).Ratio(other.report.NewHeatmap(m.internal()))
}

// HeatmapLabels returns the row (node bucket) and column (runtime
// bucket) labels matching HeatmapRatio's layout.
func HeatmapLabels() (nodeBuckets, timeBuckets []string) {
	for i := range metrics.NodeEdges {
		nodeBuckets = append(nodeBuckets, metrics.NodeBucketLabel(i))
	}
	for i := range metrics.TimeEdges {
		timeBuckets = append(timeBuckets, metrics.TimeBucketLabel(i))
	}
	return nodeBuckets, timeBuckets
}

// Simulate runs the workload under the options and returns the metrics.
func Simulate(w Workload, opt Options) (*Result, error) {
	return SimulateContext(context.Background(), w, opt)
}

// SimulateContext is Simulate with mid-simulation cancellation: the
// scheduler's event loop checkpoints ctx every few dozen events, so
// an abandoned simulation aborts within milliseconds — returning an
// error wrapping ctx.Err() — instead of running to completion.
func SimulateContext(ctx context.Context, w Workload, opt Options) (*Result, error) {
	cfg, err := opt.Config()
	if err != nil {
		return nil, fmt.Errorf("sdpolicy: %w: %w", err, ErrBadInput)
	}
	spec, err := w.resolve()
	if err != nil {
		return nil, err
	}
	res, err := sched.RunContext(ctx, *spec, cfg)
	if err != nil {
		return nil, err
	}
	rep := res.Report
	return &Result{
		Workload:           res.Workload,
		Policy:             res.Policy.String(),
		Jobs:               len(rep.Results),
		Makespan:           rep.Makespan(),
		AvgResponse:        rep.AvgResponse(),
		AvgWait:            rep.AvgWait(),
		AvgSlowdown:        rep.AvgSlowdown(),
		AvgBoundedSlowdown: rep.AvgBoundedSlowdown(600),
		P95Slowdown:        rep.SlowdownPercentile(95),
		EnergyKWh:          res.EnergyJoules / 3.6e6,
		MalleableStarts:    res.MalleableStarts,
		Mates:              res.Mates,
		report:             rep,
	}, nil
}
