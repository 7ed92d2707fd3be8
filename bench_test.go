package sdpolicy

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (cmd/sdexp's package comment lists the experiment
// behind each). Each benchmark regenerates its artefact on a scaled-down
// workload per iteration and reports the headline quantities via
// b.ReportMetric, so `go test -bench . -benchmem` both times the
// simulator and prints the reproduced results.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"sdpolicy/internal/sched"
	"sdpolicy/internal/workload"
)

// benchScale keeps a single benchmark iteration in the tens of
// milliseconds; cmd/sdexp runs the same experiments at larger scales.
const benchScale = 0.05

func BenchmarkTable1_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table1(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AvgSlowdown, r.ID+"-slowdown")
			}
		}
	}
}

func BenchmarkTable2_AppMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table2(1.0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.SharePct, r.App+"-pct")
			}
		}
	}
}

func BenchmarkFig1to3_MaxSDSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := SweepMaxSD([]string{"wl1", "wl2", "wl3", "wl4"}, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Variant == "MAXSD 10" {
					b.ReportMetric(r.AvgSlowdown, r.Workload+"-sd10-slowdown-norm")
				}
			}
		}
	}
}

func BenchmarkFig4to6_Heatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		an, err := AnalyzeBigWorkload(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// headline: overall slowdown improvement of the analysed run
			b.ReportMetric(an.Static.AvgSlowdown/an.SD.AvgSlowdown, "wl4-slowdown-ratio")
		}
	}
}

func BenchmarkFig7_Daily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		an, err := AnalyzeBigWorkload(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(an.SD.MalleableStarts)/float64(an.SD.Jobs)*100, "mall-starts-pct")
			b.ReportMetric(float64(len(an.SDDaily)), "days")
		}
	}
}

func BenchmarkFig8_RuntimeModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := CompareRuntimeModels([]string{"wl1", "wl2", "wl3", "wl4"}, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AvgResponse, fmt.Sprintf("%s-%s-resp-norm", r.Workload, r.Model))
			}
		}
	}
}

func BenchmarkFig9_RealRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := RealRunExperiment(0.25, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rep.MakespanPct, "makespan-improv-pct")
			b.ReportMetric(rep.AvgSlowdownPct, "slowdown-improv-pct")
			b.ReportMetric(rep.EnergyPct, "energy-improv-pct")
		}
	}
}

// Ablation benchmarks for design-choice sweeps that `sdexp -exp
// ablations` runs.

func BenchmarkAblation_SharingFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateSharingFactor("wl1", benchScale, 1, []float64{0.25, 0.5, 0.75})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AvgSlowdown, "sf"+r.Value+"-slowdown-norm")
			}
		}
	}
}

func BenchmarkAblation_MaxMates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateMaxMates("wl1", benchScale, 1, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AvgSlowdown, "m"+r.Value+"-slowdown-norm")
			}
		}
	}
}

func BenchmarkAblation_MalleableFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateMalleableFraction("wl1", benchScale, 1, []float64{0.25, 0.5, 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AvgSlowdown, "frac"+r.Value+"-slowdown-norm")
			}
		}
	}
}

func BenchmarkAblation_FreeNodeMixing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateFreeNodeMixing("wl1", benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.AvgSlowdown, "mix-"+r.Value+"-slowdown-norm")
			}
		}
	}
}

// BenchmarkCampaignParallel measures campaign throughput of the same
// Figures 1-3 sweep on a single worker versus the full worker pool. The
// cache is disabled so every iteration simulates all points: the
// workers=1 case is the sequential baseline, and the ns/op ratio
// between the two sub-benchmarks is the parallel speedup. Each
// sub-benchmark also reports points/s.
func BenchmarkCampaignParallel(b *testing.B) {
	workloads := []string{"wl1", "wl2", "wl3", "wl5"}
	points := len(workloads) * (1 + len(MaxSDVariants()))
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine := NewEngine(workers, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.SweepMaxSD(context.Background(), workloads, benchScale, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkCampaignGolden is the scheduler's dev-loop benchmark: the 45
// golden points (every workload preset under every policy variant) on
// one worker with the cache off, so every point simulates. Its
// points/s tracks the in-process workload of perfbench without
// building the harness.
func BenchmarkCampaignGolden(b *testing.B) {
	points := goldenPoints()
	engine := NewEngine(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(context.Background(), points); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkCampaignCached measures the memoised path: after the first
// iteration warms the cache, every sweep is pure cache hits.
func BenchmarkCampaignCached(b *testing.B) {
	engine := NewEngine(runtime.GOMAXPROCS(0), 128)
	workloads := []string{"wl1", "wl2", "wl3", "wl5"}
	if _, err := engine.SweepMaxSD(context.Background(), workloads, benchScale, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.SweepMaxSD(context.Background(), workloads, benchScale, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadDerive measures the copy-on-write derivation path
// against regenerating the same workload from scratch — the ratio is
// the per-variant saving the generation cache buys every ablation
// point (a k-variant sweep pays one generation plus k derives instead
// of k generations). wl4 at scale 0.25 is ~50k jobs, the largest
// stream the benchmark suite touches.
func BenchmarkWorkloadDerive(b *testing.B) {
	const name, scale, seed = "wl4", 0.25, 1
	base, err := workload.Shared.Get(name, scale, seed)
	if err != nil {
		b.Fatal(err)
	}
	chain := []workload.Derivation{
		workload.MalleableFraction(0.5),
		workload.TagNodes("bigmem", 0.5),
		workload.RequireFeature("bigmem", 0.25),
	}
	b.Run("derive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.Derive(base, chain); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(base.Jobs)), "jobs")
	})
	b.Run("regenerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.ByName(name, scale, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Microbenchmarks of the simulator itself: scheduling throughput.

func BenchmarkSimulator_StaticBackfill(b *testing.B) {
	w, err := NewWorkload("wl4", 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(w, Options{Policy: "static"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Jobs)/b.Elapsed().Seconds(), "jobs/s-first-iter")
		}
	}
}

func BenchmarkSimulator_SDPolicy(b *testing.B) {
	w, err := NewWorkload("wl4", 0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(w, Options{Policy: "sd", MaxSlowdown: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimKernel times the discrete-event kernel itself on a
// mid-size workload and reports raw event throughput — the number the
// telemetry plane's sim_events_per_second gauge tracks at runtime.
func BenchmarkSimKernel(b *testing.B) {
	spec, err := workload.Shared.Get("wl4", benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sched.Defaults()
	cfg.Policy = sched.SDPolicy
	cfg.MaxSlowdown = 10
	ctx := context.Background()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sched.RunContext(ctx, *spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimKernelScale runs BenchmarkSimKernel's point, WL4 under SD
// with MaxSlowdown 10, on two machine sizes and reports the cost of one
// scheduling pass. A pass whose cost grows with the machine, rather than
// with the decisions it makes, shows as us/pass rising from the first
// sub-benchmark to the second.
func BenchmarkSimKernelScale(b *testing.B) {
	cfg := sched.Defaults()
	cfg.Policy = sched.SDPolicy
	cfg.MaxSlowdown = 10
	for _, scale := range []float64{0.1, 0.2} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			spec, err := workload.Shared.Get("wl4", scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			var passes uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sched.Run(*spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				passes += res.Passes
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(passes), "us/pass")
			b.ReportMetric(float64(passes)/float64(b.N), "passes")
		})
	}
}
