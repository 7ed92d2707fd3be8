package sdpolicy

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"sdpolicy/internal/reducer"
)

// The experiment registry: every figure- and table-level experiment of
// the paper as a declarative reducer descriptor — a parameterised
// point-set generator plus an incremental fold turning streamed
// PointResults into rows and a terminal summary. One registry drives
// both the typed Engine helpers below (Engine.Experiment folds a local
// campaign) and the sdserve /v1/experiments plane (the server folds
// journaled result frames and ships rows + summary instead of raw
// points), so the two can never drift apart.

// ExperimentDescriptor is the registry's concrete descriptor type.
type ExperimentDescriptor = reducer.Descriptor[Point, *Result]

// ExperimentInstance is one parameterised fold of an experiment.
type ExperimentInstance = reducer.Instance[Point, *Result]

// Experiments returns the process-wide experiment registry.
func Experiments() *reducer.Registry[Point, *Result] { return experimentRegistry }

var experimentRegistry = newExperimentRegistry()

// Experiment runs one registry experiment by name on the engine:
// resolve parameters, simulate the instance's point set as a campaign,
// fold every result in input order, and return the typed summary
// ([]SweepRow, *BigAnalysis, ... depending on the experiment). It is
// the single execution path behind every typed Engine helper.
func (e *Engine) Experiment(ctx context.Context, name string, params reducer.Params) (any, error) {
	d := experimentRegistry.Get(name)
	if d == nil {
		return nil, fmt.Errorf("sdpolicy: unknown experiment %q: %w", name, ErrBadInput)
	}
	inst, err := d.Instance(params)
	if err != nil {
		return nil, fmt.Errorf("sdpolicy: experiment %s: %w: %w", name, err, ErrBadInput)
	}
	// Generation-only experiments (table2) never enter the campaign
	// engine, so honour cancellation explicitly before the work.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	points := inst.Points()
	if len(points) > 0 {
		results, err := e.Run(ctx, points)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			if _, err := inst.Fold(i, res); err != nil {
				return nil, err
			}
		}
	}
	return inst.Summary()
}

// Shared parameter specs. Scale and seed default to the sdexp
// conventions (0.1 keeps the full suite in the minutes range; -scale 1
// reproduces the paper's workload sizes).
func scaleParam() reducer.ParamSpec {
	return reducer.ParamSpec{Name: "scale", Type: reducer.TypeFloat, Default: 0.1,
		Description: "workload scale factor (0,1]"}
}

func seedParam() reducer.ParamSpec {
	return reducer.ParamSpec{Name: "seed", Type: reducer.TypeUint, Default: uint64(1),
		Description: "generator seed"}
}

func workloadParam() reducer.ParamSpec {
	return reducer.ParamSpec{Name: "workload", Type: reducer.TypeString, Default: "wl1",
		Description: "workload preset (wl1..wl5)"}
}

func workloadsParam() reducer.ParamSpec {
	return reducer.ParamSpec{Name: "workloads", Type: reducer.TypeStrings,
		Default:     []string{"wl1", "wl2", "wl3", "wl4"},
		Description: "workload presets swept, in output order"}
}

func newExperimentRegistry() *reducer.Registry[Point, *Result] {
	r := reducer.NewRegistry[Point, *Result]()
	r.Register(&ExperimentDescriptor{
		Name:   "table1",
		Title:  "Table 1: workload inventory + static baseline aggregates",
		Params: []reducer.ParamSpec{scaleParam(), seedParam()},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			return table1Instance(p.Float("scale"), p.Uint("seed")), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:        "table2",
		Title:       "Table 2: real-run application mix",
		Description: "generation only — no simulation points",
		Params:      []reducer.ParamSpec{scaleParam(), seedParam()},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			return table2Instance(p.Float("scale"), p.Uint("seed")), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:   "sweep_maxsd",
		Title:  "Figures 1-3: makespan/response/slowdown vs MAX_SLOWDOWN",
		Params: []reducer.ParamSpec{workloadsParam(), scaleParam(), seedParam()},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			if len(p.Strings("workloads")) == 0 {
				return nil, errors.New("missing workloads")
			}
			return sweepInstance(p.Strings("workloads"), p.Float("scale"), p.Uint("seed")), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:   "runtime_models",
		Title:  "Figure 8: DynAVGSD under the ideal vs worst-case runtime model",
		Params: []reducer.ParamSpec{workloadsParam(), scaleParam(), seedParam()},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			return modelsInstance(p.Strings("workloads"), p.Float("scale"), p.Uint("seed")), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:         "big_workload",
		Title:        "Figures 4-7: static vs SD(MAXSD 10) on the Curie-like workload",
		Description:  "category heatmaps and per-day series; needs per-job reports",
		Params:       []reducer.ParamSpec{scaleParam(), seedParam()},
		NeedsReports: true,
		New: func(p reducer.Params) (ExperimentInstance, error) {
			return bigWorkloadInstance(p.Float("scale"), p.Uint("seed")), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:   "real_run",
		Title:  "Figure 9: real-run emulation (application model + energy)",
		Params: []reducer.ParamSpec{scaleParam(), seedParam()},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			return realRunInstance(p.Float("scale"), p.Uint("seed")), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:        "real_trace",
		Title:       "Real-trace replay: static vs SD on a registered SWF trace scenario",
		Description: "replays a registered trace (see -trace / -trace-dir) under scenario derivations: arrival-rate scaling, malleable share, optional QoS striping",
		Params: []reducer.ParamSpec{
			{Name: "trace", Type: reducer.TypeString, Default: "",
				Description: "registered trace ref (trace:<digest>, prefix optional)"},
			{Name: "load_factor", Type: reducer.TypeFloat, Default: 1.5,
				Description: "arrival compression ratio (scale_load); 1 replays the recorded load"},
			{Name: "malleable_fraction", Type: reducer.TypeFloat, Default: 0.3,
				Description: "fraction of jobs re-flagged malleable"},
			{Name: "qos_class", Type: reducer.TypeString, Default: "",
				Description: "queue/QoS class striped onto jobs (assign_qos); empty disables"},
			{Name: "qos_fraction", Type: reducer.TypeFloat, Default: 0.5,
				Description: "fraction of jobs tagged with qos_class"},
			{Name: "max_slowdown", Type: reducer.TypeFloat, Default: 10.0,
				Description: "SD variant's MAX_SLOWDOWN cut-off"},
		},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			return realTraceInstance(p)
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:  "ablate_sharing_factor",
		Title: "Ablation: SharingFactor sweep",
		Params: []reducer.ParamSpec{workloadParam(), scaleParam(), seedParam(),
			{Name: "factors", Type: reducer.TypeFloats, Default: []float64{0.25, 0.5, 0.75},
				Description: "SharingFactor values swept"}},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			name, scale, seed := p.String("workload"), p.Float("scale"), p.Uint("seed")
			factors := p.Floats("factors")
			return ablateInstance("sharing-factor", name, scale, seed,
				floatValues("%.2f", factors), func(i int) Point {
					return NewPoint(name, scale, seed, Options{Policy: "sd", SharingFactor: factors[i]})
				}), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:  "ablate_max_mates",
		Title: "Ablation: mate combination bound sweep",
		Params: []reducer.ParamSpec{workloadParam(), scaleParam(), seedParam(),
			{Name: "mates", Type: reducer.TypeInts, Default: []int{1, 2, 3, 4},
				Description: "m, the mate combination bound values swept"}},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			name, scale, seed := p.String("workload"), p.Float("scale"), p.Uint("seed")
			ms := p.Ints("mates")
			values := make([]string, len(ms))
			for i, m := range ms {
				values[i] = fmt.Sprintf("%d", m)
			}
			return ablateInstance("max-mates", name, scale, seed, values, func(i int) Point {
				return NewPoint(name, scale, seed, Options{Policy: "sd", MaxMates: ms[i]})
			}), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:  "ablate_malleable_fraction",
		Title: "Ablation: malleable share of a mixed rigid/malleable workload",
		Params: []reducer.ParamSpec{workloadParam(), scaleParam(), seedParam(),
			{Name: "fractions", Type: reducer.TypeFloats, Default: []float64{0, 0.25, 0.5, 0.75, 1},
				Description: "malleable job fractions swept"}},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			name, scale, seed := p.String("workload"), p.Float("scale"), p.Uint("seed")
			fracs := p.Floats("fractions")
			return ablateInstance("malleable-fraction", name, scale, seed,
				floatValues("%.2f", fracs), func(i int) Point {
					pt := NewPoint(name, scale, seed, Options{Policy: "sd"})
					pt.MalleableFraction = fracs[i]
					return pt
				}), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:        "ablate_node_features",
		Title:       "Ablation: constrained-job share on a heterogeneous machine",
		Description: "half the nodes carry the feature; the swept fraction of jobs requires it",
		Params: []reducer.ParamSpec{workloadParam(), scaleParam(), seedParam(),
			{Name: "fractions", Type: reducer.TypeFloats, Default: []float64{0, 0.25, 0.5},
				Description: "constrained job fractions swept"}},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			const feature = "bigmem"
			name, scale, seed := p.String("workload"), p.Float("scale"), p.Uint("seed")
			fracs := p.Floats("fractions")
			return ablateInstance("node-features", name, scale, seed,
				floatValues("%.2f", fracs), func(i int) Point {
					return NewDerivedPoint(name, scale, seed, Options{Policy: "sd"},
						TagNodesDerivation(feature, 0.5),
						RequireFeatureDerivation(feature, fracs[i]))
				}), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:   "ablate_free_node_mixing",
		Title:  "Ablation: mate selection with and without free nodes",
		Params: []reducer.ParamSpec{workloadParam(), scaleParam(), seedParam()},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			name, scale, seed := p.String("workload"), p.Float("scale"), p.Uint("seed")
			mixes := []bool{false, true}
			values := make([]string, len(mixes))
			for i, mix := range mixes {
				values[i] = fmt.Sprintf("%v", mix)
			}
			return ablateInstance("free-node-mixing", name, scale, seed, values, func(i int) Point {
				return NewPoint(name, scale, seed, Options{Policy: "sd", IncludeFreeNodes: mixes[i]})
			}), nil
		},
	})
	r.Register(&ExperimentDescriptor{
		Name:   "compare_policies",
		Title:  "Policy comparison: static backfill vs oversubscription vs SD-Policy",
		Params: []reducer.ParamSpec{workloadParam(), scaleParam(), seedParam()},
		New: func(p reducer.Params) (ExperimentInstance, error) {
			name, scale, seed := p.String("workload"), p.Float("scale"), p.Uint("seed")
			policies := []string{"static", "oversubscribe", "sd"}
			return ablateInstance("policy", name, scale, seed, policies, func(i int) Point {
				return NewPoint(name, scale, seed, Options{Policy: policies[i]})
			}), nil
		},
	})
	return r
}

func floatValues(format string, vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// expInstance is the shared fold shape: a fixed point set, results
// collected by position, and per-experiment emit/summary hooks reading
// the collected results. emit returns the rows that became computable
// when position i landed; summary the complete ordered result.
type expInstance struct {
	points  []Point
	results []*Result
	emit    func(i int) ([]any, error)
	summary func() (any, error)
}

func (x *expInstance) Points() []Point { return x.points }

func (x *expInstance) Fold(i int, res *Result) ([]any, error) {
	if i < 0 || i >= len(x.results) {
		return nil, fmt.Errorf("sdpolicy: fold index %d out of range [0,%d)", i, len(x.results))
	}
	if res == nil {
		return nil, fmt.Errorf("sdpolicy: fold index %d: nil result", i)
	}
	if x.results[i] != nil {
		// A duplicate delivery (replayed frame): the first fold already
		// emitted whatever this index unlocks.
		return nil, nil
	}
	x.results[i] = res
	if x.emit == nil {
		return nil, nil
	}
	return x.emit(i)
}

func (x *expInstance) Summary() (any, error) {
	for i, res := range x.results {
		if res == nil {
			return nil, fmt.Errorf("sdpolicy: summary before point %d folded", i)
		}
	}
	return x.summary()
}

// reportedInstance adds report folding for NeedsReports experiments:
// the per-point report encoding is attached to a clone of the stored
// result (the streamed pointer may be shared with other consumers),
// restoring what the result wire form strips.
type reportedInstance struct {
	*expInstance
}

func (x *reportedInstance) FoldReport(i int, report []byte) error {
	if i < 0 || i >= len(x.results) || x.results[i] == nil {
		return fmt.Errorf("sdpolicy: report for unfolded index %d", i)
	}
	clone := *x.results[i]
	if err := clone.SetReportJSON(report); err != nil {
		return fmt.Errorf("sdpolicy: report for index %d: %w", i, err)
	}
	x.results[i] = &clone
	return nil
}

// hasReport reports whether the result still carries its per-job
// report (stripped by the result wire form, restored by SetReportJSON).
func (r *Result) hasReport() bool { return len(r.report.Results) > 0 }

func table1Instance(scale float64, seed uint64) *expInstance {
	names := []string{"wl1", "wl2", "wl3", "wl4", "wl5"}
	points := make([]Point, len(names))
	for i, name := range names {
		points[i] = NewPoint(name, scale, seed, Options{Policy: "static"})
	}
	x := &expInstance{points: points, results: make([]*Result, len(points))}
	row := func(i int) (Table1Row, error) {
		w, err := NewWorkload(names[i], scale, seed)
		if err != nil {
			return Table1Row{}, err
		}
		res := x.results[i]
		return Table1Row{
			ID: names[i], Name: w.Name(), Jobs: w.Jobs(),
			Nodes: w.Nodes(), Cores: w.Cores(), MaxJobNodes: w.MaxJobNodes(),
			AvgResponse: res.AvgResponse, AvgSlowdown: res.AvgSlowdown,
			Makespan: res.Makespan,
		}, nil
	}
	x.emit = func(i int) ([]any, error) {
		t, err := row(i)
		if err != nil {
			return nil, err
		}
		return []any{t}, nil
	}
	x.summary = func() (any, error) {
		rows := make([]Table1Row, 0, len(names))
		for i := range names {
			t, err := row(i)
			if err != nil {
				return nil, err
			}
			rows = append(rows, t)
		}
		return rows, nil
	}
	return x
}

func table2Instance(scale float64, seed uint64) *expInstance {
	x := &expInstance{}
	x.summary = func() (any, error) { return table2Rows(scale, seed) }
	return x
}

func sweepInstance(workloads []string, scale float64, seed uint64) *expInstance {
	variants := MaxSDVariants()
	stride := 1 + len(variants) // baseline + variants per workload
	var points []Point
	for _, name := range workloads {
		points = append(points, NewPoint(name, scale, seed, Options{Policy: "static"}))
		for _, v := range variants {
			points = append(points, NewPoint(name, scale, seed, v.Options))
		}
	}
	x := &expInstance{points: points, results: make([]*Result, len(points))}
	row := func(wi, vi int) SweepRow {
		base, res := x.results[wi*stride], x.results[wi*stride+1+vi]
		return SweepRow{
			Workload:        workloads[wi],
			Variant:         variants[vi].Label,
			Makespan:        ratio(float64(res.Makespan), float64(base.Makespan)),
			AvgResponse:     ratio(res.AvgResponse, base.AvgResponse),
			AvgSlowdown:     ratio(res.AvgSlowdown, base.AvgSlowdown),
			MalleableStarts: res.MalleableStarts,
		}
	}
	x.emit = func(i int) ([]any, error) {
		wi, pos := i/stride, i%stride
		var rows []any
		if pos == 0 {
			for vi := range variants {
				if x.results[wi*stride+1+vi] != nil {
					rows = append(rows, row(wi, vi))
				}
			}
		} else if x.results[wi*stride] != nil {
			rows = append(rows, row(wi, pos-1))
		}
		return rows, nil
	}
	x.summary = func() (any, error) {
		var rows []SweepRow
		for wi := range workloads {
			for vi := range variants {
				rows = append(rows, row(wi, vi))
			}
		}
		return rows, nil
	}
	return x
}

func modelsInstance(workloads []string, scale float64, seed uint64) *expInstance {
	models := []string{"ideal", "worst"}
	var points []Point
	for _, name := range workloads {
		for _, mdl := range models {
			points = append(points, NewPoint(name, scale, seed, Options{Policy: "static", Model: mdl}))
			points = append(points, NewPoint(name, scale, seed, Options{Policy: "sd", DynamicCutoff: "avg", Model: mdl}))
		}
	}
	x := &expInstance{points: points, results: make([]*Result, len(points))}
	row := func(k int) ModelRow {
		base, res := x.results[2*k], x.results[2*k+1]
		return ModelRow{
			Workload:    workloads[k/len(models)],
			Model:       models[k%len(models)],
			Makespan:    ratio(float64(res.Makespan), float64(base.Makespan)),
			AvgResponse: ratio(res.AvgResponse, base.AvgResponse),
			AvgSlowdown: ratio(res.AvgSlowdown, base.AvgSlowdown),
		}
	}
	x.emit = func(i int) ([]any, error) {
		k := i / 2
		if x.results[2*k] == nil || x.results[2*k+1] == nil {
			return nil, nil
		}
		return []any{row(k)}, nil
	}
	x.summary = func() (any, error) {
		rows := make([]ModelRow, 0, len(points)/2)
		for k := 0; k < len(points)/2; k++ {
			rows = append(rows, row(k))
		}
		return rows, nil
	}
	return x
}

func bigWorkloadInstance(scale float64, seed uint64) ExperimentInstance {
	x := &expInstance{
		points: []Point{
			NewPoint("wl4", scale, seed, Options{Policy: "static"}),
			NewPoint("wl4", scale, seed, Options{Policy: "sd", MaxSlowdown: 10}),
		},
		results: make([]*Result, 2),
	}
	x.summary = func() (any, error) {
		static, sd := x.results[0], x.results[1]
		if !static.hasReport() || !sd.hasReport() {
			return nil, fmt.Errorf("sdpolicy: big_workload summary needs per-job reports; a result arrived without one")
		}
		return &BigAnalysis{
			Static:        static,
			SD:            sd,
			SlowdownRatio: static.HeatmapRatio(sd, HeatSlowdown),
			RunTimeRatio:  static.HeatmapRatio(sd, HeatRunTime),
			WaitRatio:     static.HeatmapRatio(sd, HeatWait),
			StaticDaily:   static.Daily(),
			SDDaily:       sd.Daily(),
		}, nil
	}
	return &reportedInstance{x}
}

func realRunInstance(scale float64, seed uint64) *expInstance {
	x := &expInstance{
		points: []Point{
			NewPoint("wl5", scale, seed, Options{Policy: "static", Model: "app"}),
			NewPoint("wl5", scale, seed, Options{Policy: "sd", DynamicCutoff: "avg", Model: "app"}),
		},
		results: make([]*Result, 2),
	}
	x.summary = func() (any, error) {
		static, sd := x.results[0], x.results[1]
		return &RealRunReport{
			Static:         static,
			SD:             sd,
			MakespanPct:    improvement(float64(static.Makespan), float64(sd.Makespan)),
			AvgResponsePct: improvement(static.AvgResponse, sd.AvgResponse),
			AvgSlowdownPct: improvement(static.AvgSlowdown, sd.AvgSlowdown),
			EnergyPct:      improvement(static.EnergyKWh, sd.EnergyKWh),
		}, nil
	}
	return x
}

// realTraceInstance replays one registered trace scenario — the
// "yesterday's cluster at 1.5x load with 30% malleable jobs" campaign
// — as a static-vs-SD pair of derived points over the trace ref.
func realTraceInstance(p reducer.Params) (*expInstance, error) {
	trace := p.String("trace")
	if trace == "" {
		return nil, fmt.Errorf("parameter \"trace\" is required")
	}
	name := TraceRef + strings.TrimPrefix(trace, TraceRef)
	derivs := []Derivation{MalleableFractionDerivation(p.Float("malleable_fraction"))}
	if f := p.Float("load_factor"); f != 1 {
		derivs = append([]Derivation{ScaleLoadDerivation(f)}, derivs...)
	}
	if class := p.String("qos_class"); class != "" {
		derivs = append(derivs, AssignQoSDerivation(class, p.Float("qos_fraction")))
	}
	x := &expInstance{
		points: []Point{
			NewDerivedPoint(name, 1, 1, Options{Policy: "static"}, derivs...),
			NewDerivedPoint(name, 1, 1, Options{Policy: "sd", MaxSlowdown: p.Float("max_slowdown")}, derivs...),
		},
		results: make([]*Result, 2),
	}
	x.summary = func() (any, error) {
		static, sd := x.results[0], x.results[1]
		return &RealRunReport{
			Static:         static,
			SD:             sd,
			MakespanPct:    improvement(float64(static.Makespan), float64(sd.Makespan)),
			AvgResponsePct: improvement(static.AvgResponse, sd.AvgResponse),
			AvgSlowdownPct: improvement(static.AvgSlowdown, sd.AvgSlowdown),
			EnergyPct:      improvement(static.EnergyKWh, sd.EnergyKWh),
		}, nil
	}
	return x, nil
}

// ablateInstance folds one design-choice sweep: points[0] is the
// static baseline, points[1+i] the variant labelled values[i]; every
// row normalises its variant against the baseline.
func ablateInstance(param, name string, scale float64, seed uint64, values []string, variant func(i int) Point) *expInstance {
	points := []Point{NewPoint(name, scale, seed, Options{Policy: "static"})}
	for i := range values {
		points = append(points, variant(i))
	}
	x := &expInstance{points: points, results: make([]*Result, len(points))}
	x.emit = func(i int) ([]any, error) {
		var rows []any
		if i == 0 {
			for vi := range values {
				if x.results[1+vi] != nil {
					rows = append(rows, ablation(param, values[vi], x.results[1+vi], x.results[0]))
				}
			}
		} else if x.results[0] != nil {
			rows = append(rows, ablation(param, values[i-1], x.results[i], x.results[0]))
		}
		return rows, nil
	}
	x.summary = func() (any, error) {
		rows := make([]AblationRow, 0, len(values))
		for i, v := range values {
			rows = append(rows, ablation(param, v, x.results[i+1], x.results[0]))
		}
		return rows, nil
	}
	return x
}
