// Command sdsim runs one workload under one scheduling policy and prints
// the evaluation metrics of the paper (makespan, average response time,
// average slowdown, energy, malleability counters).
//
// The policy flags each set one field of sched.Options, the same
// configuration a campaign point carries, so an sdsim run prints the
// numbers of the equivalent point. -swf registers an SWF trace as
// trace:<digest>; the machine comes from the trace's header comments.
//
// Examples:
//
//	sdsim -wl wl1 -scale 0.25 -policy sd -maxsd 10
//	sdsim -wl wl4 -scale 0.1 -policy sd -cutoff avg -model worst
//	sdsim -swf trace.swf -policy static
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sdpolicy"
	"sdpolicy/internal/sched"
	"sdpolicy/internal/trace"
	"sdpolicy/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	var opt sched.Options
	d := sched.Defaults()
	fs := flag.NewFlagSet("sdsim", flag.ContinueOnError)
	wlName := fs.String("wl", "wl5", "workload preset: wl1..wl5")
	swfPath := fs.String("swf", "", "register an SWF trace and run it instead of a preset")
	scale := fs.Float64("scale", 1.0, "workload scale factor (0,1]")
	seed := fs.Uint64("seed", 1, "workload generator seed")
	fs.StringVar(&opt.Policy, "policy", "static", "policy: static | sd | oversubscribe")
	fs.Float64Var(&opt.MaxSlowdown, "maxsd", 0, "static MAX_SLOWDOWN cut-off (0 or inf: none)")
	fs.StringVar(&opt.DynamicCutoff, "cutoff", "", "dynamic cut-off: avg | median | p70 (empty: static -maxsd)")
	fs.StringVar(&opt.Model, "model", "ideal", "runtime model: ideal | worst | app")
	fs.Float64Var(&opt.SharingFactor, "sf", d.SharingFactor, "sharing factor")
	fs.IntVar(&opt.MaxMates, "mates", d.MaxMates, "max mates per malleable start")
	fs.IntVar(&opt.BackfillDepth, "depth", d.BackfillDepth, "conservative backfill depth")
	fs.BoolVar(&opt.IncludeFreeNodes, "free", false, "allow mixing free nodes into mate selections")
	mallFrac := fs.Float64("malleable", -1, "override malleable job fraction (0..1)")
	verbose := fs.Bool("v", false, "also print the per-day slowdown series")
	traceFile := fs.String("trace", "", "write a CSV scheduling-event trace to this file")
	timeline := fs.String("timeline", "", "write a CSV core-usage timeline to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	name := *wlName
	if *swfPath != "" {
		info, err := sdpolicy.RegisterTraceFile(*swfPath)
		if err != nil {
			return err
		}
		name = info.Ref
	}
	spec, err := workload.Shared.Get(name, *scale, *seed)
	if err != nil {
		return err
	}
	if *mallFrac >= 0 {
		// Variants are derivations over the immutable shared spec, not
		// in-place mutations — same pipeline as the campaign engine.
		if spec, err = workload.Derive(spec, []workload.Derivation{workload.MalleableFraction(*mallFrac)}); err != nil {
			return err
		}
	}

	cfg, err := opt.Config()
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if *traceFile != "" || *timeline != "" {
		rec = trace.NewRecorder()
		cfg.Observer = rec
	}

	res, err := sched.Run(*spec, cfg)
	if err != nil {
		return err
	}
	printResult(stdout, spec, res, *verbose)
	if rec != nil {
		if err := writeTraces(rec, *traceFile, *timeline); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "utilization   %.1f%% of cores over the run\n",
			100*rec.MeanUtilization(spec.Cluster.TotalCores()))
	}
	return nil
}

func writeTraces(rec *trace.Recorder, traceFile, timeline string) error {
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
	}
	if timeline != "" {
		f, err := os.Create(timeline)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteTimelineCSV(f); err != nil {
			return err
		}
	}
	return nil
}

func printResult(w io.Writer, spec *workload.Spec, res *sched.Result, verbose bool) {
	rep := &res.Report
	fmt.Fprintf(w, "workload      %s (%d jobs, %d nodes x %d cores)\n",
		res.Workload, len(spec.Jobs), spec.Cluster.Nodes, spec.Cluster.CoresPerNode())
	fmt.Fprintf(w, "policy        %s\n", res.Policy)
	fmt.Fprintf(w, "makespan      %d s\n", rep.Makespan())
	fmt.Fprintf(w, "avg response  %.1f s\n", rep.AvgResponse())
	fmt.Fprintf(w, "avg wait      %.1f s\n", rep.AvgWait())
	fmt.Fprintf(w, "avg slowdown  %.1f\n", rep.AvgSlowdown())
	fmt.Fprintf(w, "energy        %.1f kWh\n", res.EnergyJoules/3.6e6)
	fmt.Fprintf(w, "malleable     %d starts (%.1f%%), %d mates (%.1f%%)\n",
		res.MalleableStarts, 100*float64(res.MalleableStarts)/float64(len(spec.Jobs)),
		res.Mates, 100*float64(res.Mates)/float64(len(spec.Jobs)))
	fmt.Fprintf(w, "drom          %d registered, %d mask sets\n", res.DROM.Registered, res.DROM.MaskSets)
	fmt.Fprintf(w, "sim           %d events, %d passes\n", res.Events, res.Passes)
	if !verbose {
		return
	}
	fmt.Fprintln(w, "\nper-day slowdown:")
	for _, d := range rep.Daily() {
		fmt.Fprintf(w, "  day %3d  jobs %6d  avg-slowdown %10.1f  malleable %5d\n",
			d.Day, d.Jobs, d.AvgSlowdown, d.MalleableStarts)
	}
}
