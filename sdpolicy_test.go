package sdpolicy

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestNewWorkloadPresets(t *testing.T) {
	w, err := NewWorkload("wl5", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Jobs() == 0 || w.Nodes() == 0 || w.Cores() == 0 {
		t.Fatalf("empty workload: %+v", w)
	}
	if w.MaxJobNodes() > w.Nodes() {
		t.Fatal("job larger than machine")
	}
	if _, err := NewWorkload("nope", 1, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := NewWorkload("wl1", 0, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := NewWorkload("wl1", 1.5, 1); err == nil {
		t.Fatal("scale > 1 accepted")
	}
}

func TestSimulateStaticAndSD(t *testing.T) {
	w, err := NewWorkload("wl5", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Simulate(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if static.Policy != "static-backfill" || static.MalleableStarts != 0 {
		t.Fatalf("static run: %+v", static)
	}
	sd, err := Simulate(w, Options{Policy: "sd", MaxSlowdown: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sd.MalleableStarts == 0 {
		t.Fatal("SD run applied no malleability on a congested workload")
	}
	if sd.AvgSlowdown >= static.AvgSlowdown {
		t.Fatalf("SD slowdown %v not below static %v", sd.AvgSlowdown, static.AvgSlowdown)
	}
	if sd.Jobs != static.Jobs || sd.Jobs != w.Jobs() {
		t.Fatal("job counts diverge")
	}
	// the bounded metric is damped but must agree on the winner here
	if sd.AvgBoundedSlowdown >= static.AvgBoundedSlowdown {
		t.Fatalf("SD bounded slowdown %v not below static %v",
			sd.AvgBoundedSlowdown, static.AvgBoundedSlowdown)
	}
	if sd.AvgBoundedSlowdown > sd.AvgSlowdown {
		t.Fatal("bounded slowdown exceeds raw slowdown")
	}
	if sd.P95Slowdown < 1 {
		t.Fatalf("p95 slowdown %v below 1", sd.P95Slowdown)
	}
}

func TestOptionsValidation(t *testing.T) {
	w, _ := NewWorkload("wl5", 0.1, 1)
	for _, opt := range []Options{
		{Policy: "bogus"},
		{DynamicCutoff: "bogus"},
		{Model: "bogus"},
	} {
		if _, err := Simulate(w, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

func TestDailySeries(t *testing.T) {
	w, _ := NewWorkload("wl5", 0.2, 1)
	res, err := Simulate(w, Options{Policy: "sd"})
	if err != nil {
		t.Fatal(err)
	}
	days := res.Daily()
	if len(days) == 0 {
		t.Fatal("no daily series")
	}
	total := 0
	for _, d := range days {
		total += d.Jobs
		if d.AvgSlowdown < 1 {
			t.Fatalf("day %d slowdown %v below 1", d.Day, d.AvgSlowdown)
		}
	}
	if total != w.Jobs() {
		t.Fatalf("daily series covers %d of %d jobs", total, w.Jobs())
	}
}

func TestHeatmapRatioShape(t *testing.T) {
	w, _ := NewWorkload("wl5", 0.2, 1)
	static, _ := Simulate(w, Options{})
	sd, _ := Simulate(w, Options{Policy: "sd", MaxSlowdown: 10})
	ratio := static.HeatmapRatio(sd, HeatSlowdown)
	nodesL, timesL := HeatmapLabels()
	if len(ratio) != len(nodesL) {
		t.Fatalf("rows %d, labels %d", len(ratio), len(nodesL))
	}
	if len(ratio[0]) != len(timesL) {
		t.Fatalf("cols %d, labels %d", len(ratio[0]), len(timesL))
	}
	anyFinite := false
	for _, row := range ratio {
		for _, v := range row {
			if !math.IsNaN(v) {
				anyFinite = true
			}
		}
	}
	if !anyFinite {
		t.Fatal("heatmap ratio entirely empty")
	}
}

func TestAppShares(t *testing.T) {
	w, _ := NewWorkload("wl5", 1.0, 1)
	shares := w.AppShares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum %v", sum)
	}
	if shares["CoreNeuron"] < 0.25 {
		t.Fatalf("CoreNeuron share %v too low", shares["CoreNeuron"])
	}
}

// TestRegisterTraceFileRoundTrip: a registered SWF file resolves as a
// workload whose machine comes from the trace header.
func TestRegisterTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.swf")
	content := "; MaxNodes: 4\n; MaxProcs: 192\n" +
		"1 0 -1 600 -1 -1 -1 96 1200 -1 1 -1 -1 -1 -1 -1 -1 -1\n" +
		"2 60 -1 60 -1 -1 -1 48 300 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := RegisterTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(info.Ref, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Jobs() != 2 || w.MaxJobNodes() != 2 || w.Nodes() != 4 || w.Cores() != 192 {
		t.Fatalf("loaded %d jobs, max %d nodes, machine %d nodes / %d cores",
			w.Jobs(), w.MaxJobNodes(), w.Nodes(), w.Cores())
	}
	res, err := Simulate(w, Options{Policy: "sd"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 {
		t.Fatal("SWF jobs did not complete")
	}
	if _, err := RegisterTraceFile(filepath.Join(dir, "missing.swf")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSetMalleableFraction(t *testing.T) {
	w, _ := NewWorkload("wl5", 0.2, 1)
	w.SetMalleableFraction(0)
	res, err := Simulate(w, Options{Policy: "sd"})
	if err != nil {
		t.Fatal(err)
	}
	if res.MalleableStarts != 0 {
		t.Fatal("all-rigid workload used malleability")
	}
}

func TestHeterogeneousMachine(t *testing.T) {
	w, _ := NewWorkload("wl5", 0.3, 1)
	w.TagNodes("bigmem", 0.5)
	w.RequireFeature("bigmem", 0.2)
	for _, opt := range []Options{{Policy: "static"}, {Policy: "sd"}} {
		res, err := Simulate(w, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if res.Jobs != w.Jobs() {
			t.Fatalf("%+v: %d of %d jobs completed", opt, res.Jobs, w.Jobs())
		}
	}
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { w.TagNodes("x", 1.5) })
	mustPanic(func() { w.RequireFeature("x", -0.1) })
}

func TestEASYBackfillOption(t *testing.T) {
	w, _ := NewWorkload("wl5", 0.2, 1)
	easy, err := Simulate(w, Options{Policy: "static", Backfill: "easy"})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Simulate(w, Options{Policy: "static", Backfill: "conservative"})
	if err != nil {
		t.Fatal(err)
	}
	if easy.Jobs != cons.Jobs {
		t.Fatal("job counts differ between disciplines")
	}
	if _, err := Simulate(w, Options{Backfill: "bogus"}); err == nil {
		t.Fatal("unknown backfill discipline accepted")
	}
}

func TestSweepMaxSD(t *testing.T) {
	rows, err := SweepMaxSD([]string{"wl5"}, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(MaxSDVariants()) {
		t.Fatalf("rows %d, want %d", len(rows), len(MaxSDVariants()))
	}
	for _, r := range rows {
		if r.AvgSlowdown <= 0 || math.IsNaN(r.AvgSlowdown) {
			t.Fatalf("bad normalised slowdown: %+v", r)
		}
		if r.AvgSlowdown > 1.001 {
			t.Errorf("%s %s worsened slowdown: %v", r.Workload, r.Variant, r.AvgSlowdown)
		}
	}
}

func TestCompareRuntimeModels(t *testing.T) {
	rows, err := CompareRuntimeModels([]string{"wl5"}, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.AvgSlowdown > 1.01 {
			t.Errorf("model %s worsened slowdown vs static: %v", r.Model, r.AvgSlowdown)
		}
	}
}

func TestRealRunExperiment(t *testing.T) {
	rep, err := RealRunExperiment(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgSlowdownPct <= 0 {
		t.Fatalf("real-run slowdown improvement %v, want positive", rep.AvgSlowdownPct)
	}
	if rep.SD.MalleableStarts == 0 {
		t.Fatal("real run applied no malleability")
	}
}

func TestTable1And2(t *testing.T) {
	rows, err := Table1(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("table 1 rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Jobs == 0 || r.Makespan <= 0 || r.AvgSlowdown < 1 {
			t.Fatalf("bad row: %+v", r)
		}
	}
	t2, err := Table2(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 5 || t2[0].App != "PILS" {
		t.Fatalf("table 2: %+v", t2)
	}
}

func TestComparePolicies(t *testing.T) {
	rows, err := ComparePolicies("wl5", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Value] = r
	}
	if math.Abs(byName["static"].AvgSlowdown-1) > 1e-9 {
		t.Fatalf("static not normalised to 1: %v", byName["static"].AvgSlowdown)
	}
	if !(byName["sd"].AvgSlowdown < byName["oversubscribe"].AvgSlowdown) {
		t.Fatalf("SD (%v) should beat oversubscription (%v)",
			byName["sd"].AvgSlowdown, byName["oversubscribe"].AvgSlowdown)
	}
	if !(byName["oversubscribe"].AvgSlowdown < 1) {
		t.Fatalf("oversubscription (%v) should beat static here",
			byName["oversubscribe"].AvgSlowdown)
	}
}

func TestAblations(t *testing.T) {
	sf, err := AblateSharingFactor("wl5", 0.1, 1, []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(sf) != 3 {
		t.Fatalf("sf rows %d", len(sf))
	}
	mm, err := AblateMaxMates("wl5", 0.1, 1, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(mm) != 3 {
		t.Fatalf("mates rows %d", len(mm))
	}
	mf, err := AblateMalleableFraction("wl5", 0.1, 1, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	// more malleable jobs must not hurt the normalised slowdown ordering:
	// frac=0 is exactly static
	if math.Abs(mf[0].AvgSlowdown-1) > 0.001 {
		t.Fatalf("all-rigid SD run deviates from static: %v", mf[0].AvgSlowdown)
	}
	if mf[2].AvgSlowdown > mf[0].AvgSlowdown {
		t.Fatalf("fully malleable (%v) worse than all-rigid (%v)",
			mf[2].AvgSlowdown, mf[0].AvgSlowdown)
	}
	fn, err := AblateFreeNodeMixing("wl5", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fn) != 2 {
		t.Fatalf("free-node rows %d", len(fn))
	}
}
