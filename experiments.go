package sdpolicy

import (
	"context"
	"encoding/json"
	"math"

	"sdpolicy/internal/reducer"
)

// Variant is one labelled scheduler configuration of an experiment sweep.
type Variant struct {
	Label   string
	Options Options
}

// MaxSDVariants returns the Figures 1-3 configurations: MAXSD 5, 10, 50,
// infinite, and the dynamic feedback cut-off DynAVGSD. All use
// SharingFactor 0.5 and the ideal runtime model, as in Section 4.1.
func MaxSDVariants() []Variant {
	return []Variant{
		{"MAXSD 5", Options{Policy: "sd", MaxSlowdown: 5}},
		{"MAXSD 10", Options{Policy: "sd", MaxSlowdown: 10}},
		{"MAXSD 50", Options{Policy: "sd", MaxSlowdown: 50}},
		{"MAXSD inf", Options{Policy: "sd"}},
		{"DynAVGSD", Options{Policy: "sd", DynamicCutoff: "avg"}},
	}
}

// SweepRow is one (workload, variant) point of Figures 1-3, normalised
// to the static backfill baseline of the same workload: 1.0 means equal,
// below 1.0 means the SD configuration improved the metric.
type SweepRow struct {
	Workload        string  `json:"workload"`
	Variant         string  `json:"variant"`
	Makespan        float64 `json:"makespan"`
	AvgResponse     float64 `json:"avg_response"`
	AvgSlowdown     float64 `json:"avg_slowdown"`
	MalleableStarts int     `json:"malleable_starts"`
}

// SweepMaxSD regenerates Figures 1-3 on the Default engine.
func SweepMaxSD(workloads []string, scale float64, seed uint64) ([]SweepRow, error) {
	return Default().SweepMaxSD(context.Background(), workloads, scale, seed)
}

// SweepMaxSD regenerates Figures 1-3: for each workload, the static
// baseline and every MAX_SLOWDOWN variant, reporting normalised
// makespan, response and slowdown. The campaign — one static baseline
// plus len(MaxSDVariants()) points per workload — runs across the
// engine's worker pool; each workload's baseline simulates once and is
// shared by its variant rows through the campaign cache.
func (e *Engine) SweepMaxSD(ctx context.Context, workloads []string, scale float64, seed uint64) ([]SweepRow, error) {
	v, err := e.Experiment(ctx, "sweep_maxsd", reducer.Params{
		"workloads": workloads, "scale": scale, "seed": seed,
	})
	if err != nil {
		return nil, err
	}
	return v.([]SweepRow), nil
}

// ModelRow is one Figure 8 point: an SD-Policy DynAVGSD run under one
// runtime model, normalised to the static baseline under the same model.
type ModelRow struct {
	Workload    string
	Model       string
	Makespan    float64
	AvgResponse float64
	AvgSlowdown float64
}

// CompareRuntimeModels regenerates Figure 8 on the Default engine.
func CompareRuntimeModels(workloads []string, scale float64, seed uint64) ([]ModelRow, error) {
	return Default().CompareRuntimeModels(context.Background(), workloads, scale, seed)
}

// CompareRuntimeModels regenerates Figure 8: SD-Policy with the dynamic
// cut-off under the ideal and the worst-case runtime models.
func (e *Engine) CompareRuntimeModels(ctx context.Context, workloads []string, scale float64, seed uint64) ([]ModelRow, error) {
	v, err := e.Experiment(ctx, "runtime_models", reducer.Params{
		"workloads": workloads, "scale": scale, "seed": seed,
	})
	if err != nil {
		return nil, err
	}
	return v.([]ModelRow), nil
}

// HeatCells is a heatmap cell grid that survives JSON round-trips:
// empty buckets are NaN in memory (the HeatmapRatio convention, which
// encoding/json refuses to marshal) and null on the wire.
type HeatCells [][]float64

func (h HeatCells) MarshalJSON() ([]byte, error) {
	rows := make([][]*float64, len(h))
	for i, row := range h {
		rows[i] = make([]*float64, len(row))
		for j := range row {
			if !math.IsNaN(row[j]) {
				v := row[j]
				rows[i][j] = &v
			}
		}
	}
	return json.Marshal(rows)
}

func (h *HeatCells) UnmarshalJSON(data []byte) error {
	var rows [][]*float64
	if err := json.Unmarshal(data, &rows); err != nil {
		return err
	}
	out := make(HeatCells, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, len(row))
		for j, v := range row {
			if v == nil {
				out[i][j] = math.NaN()
			} else {
				out[i][j] = *v
			}
		}
	}
	*h = out
	return nil
}

// BigAnalysis is the Section 4.2 study of the large workload (Figures
// 4-7): static vs SD-Policy MAXSD 10 on the Curie-like trace, with
// category heatmaps and per-day series.
type BigAnalysis struct {
	Static *Result
	SD     *Result
	// Ratios are static/SD means per (node bucket × runtime bucket):
	// above 1.0 means SD improved that category (Figures 4-6).
	SlowdownRatio HeatCells
	RunTimeRatio  HeatCells
	WaitRatio     HeatCells
	// Daily series of both runs (Figure 7).
	StaticDaily []DayPoint
	SDDaily     []DayPoint
}

// AnalyzeBigWorkload regenerates Figures 4-7 on the Default engine.
func AnalyzeBigWorkload(scale float64, seed uint64) (*BigAnalysis, error) {
	return Default().AnalyzeBigWorkload(context.Background(), scale, seed)
}

// AnalyzeBigWorkload regenerates Figures 4-7 on the wl4 Curie-like
// workload with the paper's best static cut-off (MAXSD 10). The two
// runs execute concurrently and are shared with any other campaign
// touching the same points (e.g. fig7 after fig4-6 is all cache hits).
func (e *Engine) AnalyzeBigWorkload(ctx context.Context, scale float64, seed uint64) (*BigAnalysis, error) {
	v, err := e.Experiment(ctx, "big_workload", reducer.Params{"scale": scale, "seed": seed})
	if err != nil {
		return nil, err
	}
	return v.(*BigAnalysis), nil
}

// RealRunReport is the Figure 9 comparison on the application workload:
// improvement percentages of SD-Policy over static backfill.
type RealRunReport struct {
	Static *Result
	SD     *Result
	// Improvements in percent (positive = SD better), Figure 9's bars.
	MakespanPct    float64
	AvgResponsePct float64
	AvgSlowdownPct float64
	EnergyPct      float64
}

// RealRunExperiment regenerates Figure 9 on the Default engine.
func RealRunExperiment(scale float64, seed uint64) (*RealRunReport, error) {
	return Default().RealRunExperiment(context.Background(), scale, seed)
}

// RealRunExperiment regenerates Figure 9: the wl5 application mix under
// the contention-aware App runtime model, static vs SD-Policy.
func (e *Engine) RealRunExperiment(ctx context.Context, scale float64, seed uint64) (*RealRunReport, error) {
	v, err := e.Experiment(ctx, "real_run", reducer.Params{"scale": scale, "seed": seed})
	if err != nil {
		return nil, err
	}
	return v.(*RealRunReport), nil
}

// Table1Row is one workload inventory line of Table 1, with the
// static-backfill aggregates measured by simulation.
type Table1Row struct {
	ID          string
	Name        string
	Jobs        int
	Nodes       int
	Cores       int
	MaxJobNodes int
	AvgResponse float64
	AvgSlowdown float64
	Makespan    int64
}

// Table1 regenerates the Table 1 inventory on the Default engine.
func Table1(scale float64, seed uint64) ([]Table1Row, error) {
	return Default().Table1(context.Background(), scale, seed)
}

// Table1 regenerates the Table 1 inventory by building every preset and
// measuring its static-backfill baseline; the five baselines simulate
// concurrently and seed the cache for every later experiment that
// normalises against them.
func (e *Engine) Table1(ctx context.Context, scale float64, seed uint64) ([]Table1Row, error) {
	v, err := e.Experiment(ctx, "table1", reducer.Params{"scale": scale, "seed": seed})
	if err != nil {
		return nil, err
	}
	return v.([]Table1Row), nil
}

// Table2Row is one application line of Table 2.
type Table2Row struct {
	App      string
	SharePct float64
}

// Table2 regenerates the Table 2 application mix on the Default engine.
func Table2(scale float64, seed uint64) ([]Table2Row, error) {
	return Default().Table2(context.Background(), scale, seed)
}

// Table2 regenerates the Table 2 application mix from the generated wl5
// workload. The experiment is generation-only — its point set is empty,
// so nothing simulates — but it runs through the same registry path as
// every other experiment and honours ctx cancellation.
func (e *Engine) Table2(ctx context.Context, scale float64, seed uint64) ([]Table2Row, error) {
	v, err := e.Experiment(ctx, "table2", reducer.Params{"scale": scale, "seed": seed})
	if err != nil {
		return nil, err
	}
	return v.([]Table2Row), nil
}

// table2Rows generates the Table 2 mix; shared by the table2 descriptor.
func table2Rows(scale float64, seed uint64) ([]Table2Row, error) {
	w, err := NewWorkload("wl5", scale, seed)
	if err != nil {
		return nil, err
	}
	shares := w.AppShares()
	order := []string{"PILS", "STREAM", "CoreNeuron", "NEST", "Alya"}
	rows := make([]Table2Row, 0, len(order))
	for _, app := range order {
		rows = append(rows, Table2Row{App: app, SharePct: 100 * shares[app]})
	}
	return rows, nil
}

// AblationRow is one point of a design-choice sweep.
type AblationRow struct {
	Parameter   string
	Value       string
	AvgSlowdown float64 // normalised to static backfill
	AvgResponse float64
	Makespan    float64
}

// ablateExperiment runs one ablation-family descriptor with the list
// parameter that varies per family. The baseline point is canonically
// identical across all ablations of the same workload, so it simulates
// once per engine, not once per sweep.
func (e *Engine) ablateExperiment(ctx context.Context, exp, name string, scale float64, seed uint64, listName string, list any) ([]AblationRow, error) {
	params := reducer.Params{"workload": name, "scale": scale, "seed": seed}
	if listName != "" {
		params[listName] = list
	}
	v, err := e.Experiment(ctx, exp, params)
	if err != nil {
		return nil, err
	}
	return v.([]AblationRow), nil
}

// AblateSharingFactor sweeps the SharingFactor on the Default engine.
func AblateSharingFactor(name string, scale float64, seed uint64, factors []float64) ([]AblationRow, error) {
	return Default().AblateSharingFactor(context.Background(), name, scale, seed, factors)
}

// AblateSharingFactor sweeps the SharingFactor (Section 3.3) on the
// given workload.
func (e *Engine) AblateSharingFactor(ctx context.Context, name string, scale float64, seed uint64, factors []float64) ([]AblationRow, error) {
	return e.ablateExperiment(ctx, "ablate_sharing_factor", name, scale, seed, "factors", factors)
}

// AblateMaxMates sweeps the mate combination bound on the Default engine.
func AblateMaxMates(name string, scale float64, seed uint64, ms []int) ([]AblationRow, error) {
	return Default().AblateMaxMates(context.Background(), name, scale, seed, ms)
}

// AblateMaxMates sweeps m, the mate combination bound (Section 3.2.4:
// "we did not see improvements ... increasing m over two").
func (e *Engine) AblateMaxMates(ctx context.Context, name string, scale float64, seed uint64, ms []int) ([]AblationRow, error) {
	return e.ablateExperiment(ctx, "ablate_max_mates", name, scale, seed, "mates", ms)
}

// AblateMalleableFraction sweeps the malleable share on the Default engine.
func AblateMalleableFraction(name string, scale float64, seed uint64, fracs []float64) ([]AblationRow, error) {
	return Default().AblateMalleableFraction(context.Background(), name, scale, seed, fracs)
}

// AblateMalleableFraction sweeps the malleable share of a mixed
// rigid/malleable workload (Section 1: SD-Policy "supports mixed
// workloads ... ideal for being used in transition").
func (e *Engine) AblateMalleableFraction(ctx context.Context, name string, scale float64, seed uint64, fracs []float64) ([]AblationRow, error) {
	return e.ablateExperiment(ctx, "ablate_malleable_fraction", name, scale, seed, "fractions", fracs)
}

// AblateNodeFeatures sweeps the constrained-job share on the Default
// engine.
func AblateNodeFeatures(name string, scale float64, seed uint64, fracs []float64) ([]AblationRow, error) {
	return Default().AblateNodeFeatures(context.Background(), name, scale, seed, fracs)
}

// AblateNodeFeatures sweeps the share of jobs constrained to a node
// feature on a heterogeneous machine where half the nodes carry it —
// the constraint-filtering behaviour of Section 3.2.4. Each variant is
// a plain campaign point whose derivation chain tags the nodes and
// constrains the jobs, so the whole heterogeneous sweep is expressible
// over /v1/campaigns and shares one generated base workload.
func (e *Engine) AblateNodeFeatures(ctx context.Context, name string, scale float64, seed uint64, fracs []float64) ([]AblationRow, error) {
	return e.ablateExperiment(ctx, "ablate_node_features", name, scale, seed, "fractions", fracs)
}

// ComparePolicies compares the three policies on the Default engine.
func ComparePolicies(name string, scale float64, seed uint64) ([]AblationRow, error) {
	return Default().ComparePolicies(context.Background(), name, scale, seed)
}

// ComparePolicies runs static backfill, non-adaptive oversubscription
// and SD-Policy on the same workload — the §1/§5 motivation that
// malleability beats blind resource sharing. Values are normalised to
// static backfill; the static row doubles as the baseline and
// simulates only once thanks to point canonicalisation.
func (e *Engine) ComparePolicies(ctx context.Context, name string, scale float64, seed uint64) ([]AblationRow, error) {
	return e.ablateExperiment(ctx, "compare_policies", name, scale, seed, "", nil)
}

// AblateFreeNodeMixing compares mate selection with and without free
// nodes on the Default engine.
func AblateFreeNodeMixing(name string, scale float64, seed uint64) ([]AblationRow, error) {
	return Default().AblateFreeNodeMixing(context.Background(), name, scale, seed)
}

// AblateFreeNodeMixing compares mate selection with and without the
// IncludeFreeNodes option (Section 3.2.4).
func (e *Engine) AblateFreeNodeMixing(ctx context.Context, name string, scale float64, seed uint64) ([]AblationRow, error) {
	return e.ablateExperiment(ctx, "ablate_free_node_mixing", name, scale, seed, "", nil)
}

func ablation(param, value string, res, base *Result) AblationRow {
	return AblationRow{
		Parameter:   param,
		Value:       value,
		AvgSlowdown: ratio(res.AvgSlowdown, base.AvgSlowdown),
		AvgResponse: ratio(res.AvgResponse, base.AvgResponse),
		Makespan:    ratio(float64(res.Makespan), float64(base.Makespan)),
	}
}

func ratio(v, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return v / base
}

// improvement returns the percentage reduction of v relative to base.
func improvement(base, v float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (base - v) / base
}
