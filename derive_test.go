package sdpolicy

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sdpolicy/internal/workload"
)

// resultsEquivalent asserts two results are byte-identical over the
// wire and carry identical per-job reports (the data behind Daily and
// the heatmaps).
func resultsEquivalent(t *testing.T, label string, a, b *Result) {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("%s: results differ:\n%s\n%s", label, aj, bj)
	}
	if !reflect.DeepEqual(a.report, b.report) {
		t.Fatalf("%s: per-job reports differ", label)
	}
}

// TestDeriveEquivalentToPrivateSpec: for all five workloads, deriving
// from a privately generated spec and from the shared cached base must
// produce byte-identical Results — the cache and the chain change
// where work happens, never what is simulated.
func TestDeriveEquivalentToPrivateSpec(t *testing.T) {
	scales := map[string]float64{"wl1": 0.05, "wl2": 0.05, "wl3": 0.05, "wl4": 0.02, "wl5": 0.2}
	opt := Options{Policy: "sd", MaxSlowdown: 10}
	for _, name := range workload.Names() {
		scale := scales[name]
		// Private pipeline: generate a spec this test owns, derive, and
		// simulate directly.
		spec, err := workload.ByName(name, scale, 11)
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := workload.Derive(&spec, []workload.Derivation{workload.MalleableFraction(0.5)})
		if err != nil {
			t.Fatal(err)
		}
		old, err := Simulate(Workload{spec: mixed}, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Shared pipeline: cached base + derivation chain on the handle.
		w, err := NewWorkload(name, scale, 11)
		if err != nil {
			t.Fatal(err)
		}
		w.SetMalleableFraction(0.5)
		derived, err := Simulate(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsEquivalent(t, name, old, derived)
	}
}

// TestHeterogeneousDeriveEquivalence covers the node-feature ops: the
// derivation chain must reproduce what direct spec surgery did before
// the refactor.
func TestHeterogeneousDeriveEquivalence(t *testing.T) {
	const name, scale = "wl1", 0.05
	var seed uint64 = 5
	// Old pipeline, replicated on a private spec exactly as the
	// pre-derivation TagNodes/RequireFeature methods did it.
	spec, err := workload.ByName(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.NodeFeatures = map[int][]string{}
	for nd := 0; nd < spec.Cluster.Nodes; nd++ {
		if float64(nd%100) < 50 {
			spec.NodeFeatures[nd] = append(spec.NodeFeatures[nd], "bigmem")
		}
	}
	for i := range spec.Jobs {
		if float64(i%100) < 30 {
			spec.Jobs[i].Features = append(spec.Jobs[i].Features, "bigmem")
		}
	}
	old, err := Simulate(Workload{spec: &spec}, Options{Policy: "sd"})
	if err != nil {
		t.Fatal(err)
	}

	w, err := NewWorkload(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	w.TagNodes("bigmem", 0.5)
	w.RequireFeature("bigmem", 0.3)
	derived, err := Simulate(w, Options{Policy: "sd"})
	if err != nil {
		t.Fatal(err)
	}
	resultsEquivalent(t, "heterogeneous", old, derived)

	// The shared cached base must be untouched by either variant.
	fresh, err := workload.ByName(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := workload.Shared.Get(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Jobs, cached.Jobs) || cached.NodeFeatures != nil {
		t.Fatal("deriving variants mutated the shared cached base")
	}
}

// TestAblationGeneratesBaseWorkloadOnce is the acceptance criterion of
// the derivation refactor: a k-variant ablation campaign over one
// workload generates that workload exactly once — every variant derives
// from the shared cached base instead of regenerating.
func TestAblationGeneratesBaseWorkloadOnce(t *testing.T) {
	// A seed no other test uses, so the generation-count delta below is
	// exactly this campaign's.
	const seed uint64 = 987654321
	_, before := workload.Shared.Stats()
	engine := NewEngine(4, 64)
	rows, err := engine.AblateMalleableFraction(context.Background(), "wl5", 0.2, seed,
		[]float64{0, 0.25, 0.5, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	_, after := workload.Shared.Stats()
	if gens := after - before; gens != 1 {
		t.Fatalf("ablation generated the base workload %d times, want exactly 1", gens)
	}

	// Same property for the heterogeneous node-feature ablation, whose
	// variants stack two derivations per point.
	_, before = workload.Shared.Stats()
	if _, err := engine.AblateNodeFeatures(context.Background(), "wl5", 0.2, seed+1,
		[]float64{0, 0.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	_, after = workload.Shared.Stats()
	if gens := after - before; gens != 1 {
		t.Fatalf("node-feature ablation generated the base %d times, want exactly 1", gens)
	}
}

// TestCanonicalFoldsLegacyFractionIntoChain: the legacy
// MalleableFraction field and the equivalent leading derivation must
// canonicalise to the same cache key — one simulation, two spellings.
func TestCanonicalFoldsLegacyFractionIntoChain(t *testing.T) {
	legacy := NewPoint("wl5", 0.2, 1, Options{Policy: "sd"})
	legacy.MalleableFraction = 0.5
	derived := NewDerivedPoint("wl5", 0.2, 1, Options{Policy: "sd"}, MalleableFractionDerivation(0.5))
	if legacy.canonical() != derived.canonical() {
		t.Fatalf("canonical keys differ:\n%+v\n%+v", legacy.canonical(), derived.canonical())
	}

	engine := NewEngine(2, 16)
	ctx := context.Background()
	if _, err := engine.Run(ctx, []Point{legacy}); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := engine.CacheStats()
	if _, err := engine.Run(ctx, []Point{derived}); err != nil {
		t.Fatal(err)
	}
	hits, misses := engine.CacheStats()
	if misses != missesBefore {
		t.Fatalf("derived spelling simulated again (misses %d -> %d)", missesBefore, misses)
	}
	if hits == 0 {
		t.Fatal("derived spelling missed the cache")
	}
}

func TestPointDerivationsJSONRoundTrip(t *testing.T) {
	p := NewDerivedPoint("wl1", 0.1, 2, Options{Policy: "sd"},
		TagNodesDerivation("bigmem", 0.5),
		RequireFeatureDerivation("bigmem", 0.25))
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Point
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip:\n%+v\n%+v", back, p)
	}
	// The wire form is a valid PointSpec carrying the derivation list.
	var spec PointSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(spec.Derivations) != 2 || spec.Derivations[0].Op != "tag_nodes" {
		t.Fatalf("wire derivations: %+v", spec.Derivations)
	}
	if spec.Point() != p {
		t.Fatalf("spec.Point():\n%+v\n%+v", spec.Point(), p)
	}
}

func TestEngineRejectsInvalidDerivations(t *testing.T) {
	engine := NewEngine(2, 0)
	bad := []Point{
		NewDerivedPoint("wl5", 0.2, 1, Options{}, Derivation{Op: "bogus", Fraction: 0.5}),
		NewDerivedPoint("wl5", 0.2, 1, Options{}, MalleableFractionDerivation(1.5)),
		{Workload: "wl5", Scale: 0.2, Seed: 1, MalleableFraction: -1, Derivations: workload.Chain("{broken")},
	}
	for _, p := range bad {
		if _, err := engine.Run(context.Background(), []Point{p}); err == nil {
			t.Fatalf("invalid point accepted: %+v", p)
		}
	}
	var spec PointSpec
	if err := json.Unmarshal([]byte(`{"workload":"wl5","derivations":[{"op":"tag_nodes","fraction":0.5}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err == nil {
		t.Fatal("tag_nodes without a feature accepted")
	}
}

// TestSaveLoadCacheRoundTrip: the cache logs must restore results that
// are byte-identical to freshly simulated ones — including the per-job
// report behind Daily and the heatmaps — and serve them as pure cache
// hits. The writing engine never closes its log before the reload, as
// a process killed with SIGKILL would not: every entry is on disk the
// moment its point completes.
func TestSaveLoadCacheRoundTrip(t *testing.T) {
	ctx := context.Background()
	points := []Point{
		NewPoint("wl5", 0.2, 1, Options{Policy: "static"}),
		NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10}),
		NewDerivedPoint("wl5", 0.2, 1, Options{Policy: "sd"},
			TagNodesDerivation("bigmem", 0.5), RequireFeatureDerivation("bigmem", 0.25)),
	}
	dir := filepath.Join(t.TempDir(), "cache")
	warm := NewEngine(2, 32)
	persistCache(t, warm, dir)
	want, err := warm.Run(ctx, points)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewEngine(2, 32)
	stats, _ := persistCache(t, cold, dir)
	if stats.Files != 1 || stats.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 log, 3 entries", stats)
	}
	got, err := cold.Run(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cold.CacheStats(); misses != 0 {
		t.Fatalf("loaded engine simulated %d points, want 0", misses)
	}
	for i := range want {
		resultsEquivalent(t, points[i].Workload, want[i], got[i])
	}
	// The restored report must actually drive the derived artefacts.
	if len(got[0].Daily()) == 0 {
		t.Fatal("restored result lost its daily series")
	}
	if cells := got[0].HeatmapRatio(got[1], HeatSlowdown); len(cells) == 0 {
		t.Fatal("restored result lost its heatmap data")
	}
}

// TestPersistCacheTornTail: a log whose last record was torn mid-write
// loads the records before it.
func TestPersistCacheTornTail(t *testing.T) {
	ctx := context.Background()
	points := []Point{
		NewPoint("wl5", 0.2, 1, Options{Policy: "static"}),
		NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10}),
	}
	dir := t.TempDir()
	engine := NewEngine(1, 8)
	_, closeLog := persistCache(t, engine, dir)
	for _, p := range points {
		if _, err := engine.SimulatePoint(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	closeLog()
	paths := cacheLogPaths(t, dir)
	if len(paths) != 1 {
		t.Fatalf("%d logs, want 1", len(paths))
	}
	fi, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[0], fi.Size()-100); err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(1, 8)
	stats, _ := persistCache(t, cold, dir)
	if stats.Files != 1 || stats.Entries != 1 || len(stats.Skipped) != 0 {
		t.Fatalf("stats = %+v, want the 1-entry valid prefix", stats)
	}
	if _, err := cold.Run(ctx, points); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cold.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", hits, misses)
	}
}

// TestLoadCacheRejectsCorruptFiles: every log that fails to load is
// skipped whole and named, while a valid neighbour still loads.
func TestLoadCacheRejectsCorruptFiles(t *testing.T) {
	const (
		create = `{"seq":0,"kind":"create","data":{"version":2}}` + "\n"
		point  = `{"workload":"wl5","scale":0.2,"seed":1,"options":{}}`
	)
	entry := func(seq int, data string) string {
		return `{"seq":` + strconv.Itoa(seq) + `,"kind":"entry","data":` + data + "}\n"
	}
	dir := t.TempDir()
	p := NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10})
	source := NewEngine(1, 8)
	persistCache(t, source, dir)
	want, err := source.SimulatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{
		"empty":      "",
		"garbage":    "{not json\n",
		"version":    `{"seq":0,"kind":"create","data":{"version":1}}` + "\n",
		"noresult":   create + entry(1, `{"point":`+point+`}`),
		"kind":       create + `{"seq":1,"kind":"result","data":{"point":` + point + `,"result":{}}}` + "\n",
		"badpoint":   create + entry(1, `{"point":{"workload":"wl5","scale":0.2,"seed":1,"options":{},"derivations":[{"op":"nope"}]},"result":{}}`),
		"midcorrupt": create + "{torn\n" + entry(2, `{"point":`+point+`,"result":{}}`),
	}
	for name, content := range bad {
		if err := os.WriteFile(filepath.Join(dir, "cache-"+name+".journal"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	engine := NewEngine(1, 8)
	stats, _ := persistCache(t, engine, dir)
	if stats.Files != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v, want the one valid log loaded", stats)
	}
	if len(stats.Skipped) != len(bad) {
		t.Fatalf("skipped %d logs, want %d: %v", len(stats.Skipped), len(bad), stats.Skipped)
	}
	for name := range bad {
		named := false
		for _, line := range stats.Skipped {
			named = named || strings.Contains(line, "cache-"+name)
		}
		if !named {
			t.Errorf("log cache-%s skipped without being named: %v", name, stats.Skipped)
		}
	}
	got, err := engine.SimulatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := engine.CacheStats(); misses != 0 {
		t.Fatal("the valid neighbour did not load")
	}
	resultsEquivalent(t, p.Workload, want, got)
}

// A non-finite fraction must flow from the constructor to a clean
// ErrBadInput at Run time — not a panic at encode time.
func TestNonFiniteDerivationFractionRejectedNotPanicking(t *testing.T) {
	p := NewDerivedPoint("wl5", 0.2, 1, Options{Policy: "sd"}, MalleableFractionDerivation(math.NaN()))
	_, err := NewEngine(1, 0).Run(context.Background(), []Point{p})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}
