package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"

	"sdpolicy"
	"sdpolicy/internal/reducer"
	"sdpolicy/internal/serve"
	"sdpolicy/internal/viz"
)

// The -experiment mode: run one registry experiment (the same registry
// sdserve exposes as /v1/experiments) locally or remotely and render
// its typed result. Unlike -exp there is no banner or timing line, so
// a local and a remote run of the same experiment produce byte-
// identical output — which is exactly what the CI experiments gate
// diffs.

// runExperiment runs the named registry experiment, on the servers in
// serverList (comma-separated equivalent sdserve bases) or else on the
// local engine, and renders its summary.
func (r *runner) runExperiment(name, serverList string) error {
	if name == "list" {
		for _, d := range sdpolicy.Experiments().List() {
			fmt.Printf("%-26s %s\n", d.Name, d.Title)
		}
		return nil
	}
	d := sdpolicy.Experiments().Get(name)
	if d == nil {
		return fmt.Errorf("unknown experiment %q (-experiment list prints the registry)", name)
	}
	result, err := r.summary(d, serverList)
	if err != nil {
		return err
	}
	return renderExperiment(os.Stdout, result)
}

// summary runs experiment d with the -scale/-seed flags, and the one
// trace -trace registered, carried into whichever of its parameters
// they name, every other parameter on its default. With serverList it
// runs as a /v1/experiments resource there, and d decodes the summary
// frame into the type the local engine returns, so both paths render
// through the same code.
func (r *runner) summary(d *sdpolicy.ExperimentDescriptor, serverList string) (any, error) {
	params := reducer.Params{}
	for _, ps := range d.Params {
		switch ps.Name {
		case "scale":
			params["scale"] = r.scale
		case "seed":
			params["seed"] = r.seed
		case "trace":
			// Only -trace registers traces in this process.
			traces := sdpolicy.RegisteredTraces()
			if len(traces) > 1 {
				return nil, fmt.Errorf("experiment %s takes one trace, and -trace registered %d", d.Name, len(traces))
			}
			if len(traces) == 1 {
				params["trace"] = traces[0].Ref
			}
		}
	}
	if serverList == "" {
		return r.engine.Experiment(r.ctx, d.Name, params)
	}
	raw, err := serve.RunRemoteExperiment(r.ctx, http.DefaultClient, splitBases(serverList), d.Name, params, nil)
	if err != nil {
		return nil, err
	}
	result, err := d.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("experiment %s summary: %w", d.Name, err)
	}
	return result, nil
}

// renderExperiment dispatches on the experiment's result type. The
// render functions are shared with the -exp sections, so the two modes
// can never drift apart on formatting.
func renderExperiment(w io.Writer, result any) error {
	switch v := result.(type) {
	case []sdpolicy.Table1Row:
		renderTable1(w, v)
	case []sdpolicy.Table2Row:
		renderTable2(w, v)
	case []sdpolicy.SweepRow:
		renderSweep(w, v)
	case []sdpolicy.ModelRow:
		renderModels(w, v)
	case *sdpolicy.BigAnalysis:
		renderBigHeatmaps(w, v)
		renderBigDaily(w, v)
	case *sdpolicy.RealRunReport:
		renderRealRun(w, v)
	case []sdpolicy.AblationRow:
		fmt.Fprintln(w, "normalised to static backfill (lower is better)")
		renderAblationTable(w, v)
	default:
		return fmt.Errorf("no renderer for experiment result type %T", result)
	}
	return nil
}

func renderTable1(w io.Writer, rows []sdpolicy.Table1Row) {
	fmt.Fprintf(w, "%-5s %-16s %8s %7s %8s %8s %14s %14s %12s\n",
		"ID", "Log/model", "#jobs", "nodes", "cores", "max-job", "avg-resp(s)", "avg-slowdown", "makespan(s)")
	for _, t := range rows {
		fmt.Fprintf(w, "%-5s %-16s %8d %7d %8d %8d %14.1f %14.1f %12d\n",
			t.ID, t.Name, t.Jobs, t.Nodes, t.Cores, t.MaxJobNodes,
			t.AvgResponse, t.AvgSlowdown, t.Makespan)
	}
}

func renderTable2(w io.Writer, rows []sdpolicy.Table2Row) {
	fmt.Fprintf(w, "%-12s %10s %10s\n", "Application", "share(%)", "paper(%)")
	paper := map[string]float64{"PILS": 30.5, "STREAM": 30.8, "CoreNeuron": 35.5, "NEST": 2.6, "Alya": 0.6}
	for _, t := range rows {
		fmt.Fprintf(w, "%-12s %10.1f %10.1f\n", t.App, t.SharePct, paper[t.App])
	}
}

func renderSweep(w io.Writer, rows []sdpolicy.SweepRow) {
	fmt.Fprintln(w, "values normalised to the static backfill baseline (1.00 = equal)")
	fmt.Fprintf(w, "%-5s %-10s %10s %10s %10s %10s\n",
		"WL", "variant", "makespan", "response", "slowdown", "mall-jobs")
	for _, row := range rows {
		fmt.Fprintf(w, "%-5s %-10s %10.3f %10.3f %10.3f %10d\n",
			row.Workload, row.Variant, row.Makespan, row.AvgResponse,
			row.AvgSlowdown, row.MalleableStarts)
	}
	fmt.Fprintln(w)
	charts := []struct {
		title string
		pick  func(sdpolicy.SweepRow) float64
	}{
		{"Figure 1: makespan normalised to static backfill ('|' = 1.0)", func(x sdpolicy.SweepRow) float64 { return x.Makespan }},
		{"Figure 2: avg response time normalised to static backfill", func(x sdpolicy.SweepRow) float64 { return x.AvgResponse }},
		{"Figure 3: avg slowdown normalised to static backfill", func(x sdpolicy.SweepRow) float64 { return x.AvgSlowdown }},
	}
	for _, c := range charts {
		var bars []viz.Bar
		for _, row := range rows {
			bars = append(bars, viz.Bar{Label: row.Workload + " " + row.Variant, Value: c.pick(row)})
		}
		viz.HBar(w, c.title, bars, viz.HBarConfig{Width: 40, Reference: 1.0})
		fmt.Fprintln(w)
	}
}

func renderBigHeatmaps(w io.Writer, an *sdpolicy.BigAnalysis) {
	fmt.Fprintf(w, "wl4: static slowdown %.1f vs SD(MAXSD 10) %.1f (%.1f%% reduction)\n",
		an.Static.AvgSlowdown, an.SD.AvgSlowdown,
		100*(an.Static.AvgSlowdown-an.SD.AvgSlowdown)/an.Static.AvgSlowdown)
	printHeatmap(w, "Figure 4: slowdown ratio static/SD per job category", an.SlowdownRatio)
	printHeatmap(w, "Figure 5: runtime ratio static/SD per job category", an.RunTimeRatio)
	printHeatmap(w, "Figure 6: wait-time ratio static/SD per job category", an.WaitRatio)
}

func printHeatmap(w io.Writer, title string, cells [][]float64) {
	nodeLabels, timeLabels := sdpolicy.HeatmapLabels()
	viz.Heat(w, title, nodeLabels, timeLabels, cells)
	fmt.Fprintln(w)
}

func renderBigDaily(w io.Writer, an *sdpolicy.BigAnalysis) {
	fmt.Fprintf(w, "malleable starts %d (%.1f%% of jobs), mates %d (%.1f%%)\n",
		an.SD.MalleableStarts, 100*float64(an.SD.MalleableStarts)/float64(an.SD.Jobs),
		an.SD.Mates, 100*float64(an.SD.Mates)/float64(an.SD.Jobs))
	sdByDay := map[int]sdpolicy.DayPoint{}
	for _, d := range an.SDDaily {
		sdByDay[d.Day] = d
	}
	fmt.Fprintf(w, "%-5s %12s %12s %12s\n", "day", "static-sd", "sdpolicy-sd", "mall-starts")
	lastDay := 0
	for _, d := range an.StaticDaily {
		sd := sdByDay[d.Day]
		fmt.Fprintf(w, "%-5d %12.1f %12.1f %12d\n", d.Day, d.AvgSlowdown, sd.AvgSlowdown, sd.MalleableStarts)
		if d.Day > lastDay {
			lastDay = d.Day
		}
	}
	static := make([]float64, lastDay+1)
	sdpts := make([]float64, lastDay+1)
	for i := range static {
		static[i], sdpts[i] = math.NaN(), math.NaN()
	}
	for _, d := range an.StaticDaily {
		static[d.Day] = d.AvgSlowdown
	}
	for _, d := range an.SDDaily {
		sdpts[d.Day] = d.AvgSlowdown
	}
	fmt.Fprintln(w)
	viz.Plot(w, "Figure 7: per-day average slowdown (x = day)", 12, []viz.Series{
		{Name: "static backfill", Points: static},
		{Name: "SD-Policy MAXSD 10", Points: sdpts},
	})
}

func renderModels(w io.Writer, rows []sdpolicy.ModelRow) {
	fmt.Fprintln(w, "SD-Policy DynAVGSD normalised to static backfill, per runtime model")
	fmt.Fprintf(w, "%-5s %-7s %10s %10s %10s\n", "WL", "model", "makespan", "response", "slowdown")
	for _, row := range rows {
		fmt.Fprintf(w, "%-5s %-7s %10.3f %10.3f %10.3f\n",
			row.Workload, row.Model, row.Makespan, row.AvgResponse, row.AvgSlowdown)
	}
}

func renderRealRun(w io.Writer, rep *sdpolicy.RealRunReport) {
	fmt.Fprintln(w, "improvement of SD-Policy over static backfill (positive = better):")
	fmt.Fprintf(w, "%-14s %10s %10s\n", "metric", "ours(%)", "paper(%)")
	fmt.Fprintf(w, "%-14s %10.1f %10.1f\n", "makespan", rep.MakespanPct, 7.0)
	fmt.Fprintf(w, "%-14s %10.1f %10.1f\n", "avg response", rep.AvgResponsePct, 16.0)
	fmt.Fprintf(w, "%-14s %10.1f %10.1f\n", "avg slowdown", rep.AvgSlowdownPct, 16.0)
	fmt.Fprintf(w, "%-14s %10.1f %10.1f\n", "energy", rep.EnergyPct, 6.0)
	fmt.Fprintf(w, "malleable starts: %d of %d jobs\n", rep.SD.MalleableStarts, rep.SD.Jobs)
}

func renderAblationTable(w io.Writer, rows []sdpolicy.AblationRow) {
	fmt.Fprintf(w, "%-20s %-8s %10s %10s %10s\n", "parameter", "value", "slowdown", "response", "makespan")
	last := ""
	for _, row := range rows {
		if row.Parameter != last {
			fmt.Fprintln(w, strings.Repeat("-", 62))
			last = row.Parameter
		}
		fmt.Fprintf(w, "%-20s %-8s %10.3f %10.3f %10.3f\n",
			row.Parameter, row.Value, row.AvgSlowdown, row.AvgResponse, row.Makespan)
	}
}
