package sched

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdpolicy/internal/model"
	"sdpolicy/internal/workload"
)

// The decision digests pin every scheduling decision on the paths the
// 45-point golden oracle does not reach: EASY reservations, top-K
// candidate truncation, rigid jobs under SD, feature-constrained
// estimates and per-queue cut-offs. Each line of the digest file holds
// one run's name, the sha256 of its Report.Results JSON and its pass
// count. Regenerate with:
//
//	go test -run TestDecisionDigests ./internal/sched -update-decisions
var updateDecisions = flag.Bool("update-decisions", false,
	"rewrite testdata/decisions.txt from the current scheduler")

// decisionRun is one simulation the digest file pins.
type decisionRun struct {
	name string
	spec workload.Spec
	cfg  Config
}

// randomConfigs is TestStressRandomWorkloads's configuration set plus
// the cases it leaves out: a candidate cap of one, oversubscription
// with and without free-node mixing, and a percentile cut-off.
func randomConfigs() []struct {
	name string
	cfg  Config
} {
	dyn := sdConfig()
	dyn.Cutoff = CutoffDynAvg
	ideal := sdConfig()
	ideal.RuntimeModel = model.Ideal
	free := sdConfig()
	free.IncludeFreeNodes = true
	easy := sdConfig()
	easy.ReservationDepth = 1
	three := sdConfig()
	three.MaxMates = 3
	tight := sdConfig()
	tight.BackfillDepth = 3
	capOne := sdConfig()
	capOne.CandidateCap = 1
	oversub := oversubConfig(0.15)
	oversubFree := oversubConfig(0.15)
	oversubFree.IncludeFreeNodes = true
	p70 := sdConfig()
	p70.Cutoff = CutoffDynP70
	return []struct {
		name string
		cfg  Config
	}{
		{"static", Defaults()}, {"sd", sdConfig()}, {"sd-dynavg", dyn},
		{"sd-ideal", ideal}, {"sd-free", free}, {"sd-easy", easy},
		{"sd-mates3", three}, {"sd-depth3", tight}, {"sd-cap1", capOne},
		{"oversub", oversub}, {"oversub-free", oversubFree}, {"sd-dynp70", p70},
	}
}

// decisionRuns lists every pinned run in file order.
func decisionRuns(t *testing.T) []decisionRun {
	t.Helper()
	var runs []decisionRun
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 100; trial++ {
		spec := randomSpec(rng)
		for _, c := range randomConfigs() {
			runs = append(runs, decisionRun{
				name: fmt.Sprintf("random/%03d/%s", trial, c.name),
				spec: spec, cfg: c.cfg,
			})
		}
	}

	base := workload.WL1(0.1, 3)
	derived := []struct {
		name   string
		derivs []workload.Derivation
	}{
		{"features", []workload.Derivation{
			workload.TagNodes("bigmem", 0.5), workload.RequireFeature("bigmem", 0.25)}},
		{"malleable50", []workload.Derivation{workload.MalleableFraction(0.5)}},
		{"qos", []workload.Derivation{workload.AssignQoS("gold", 0.5)}},
	}
	easy := sdConfig()
	easy.ReservationDepth = 1
	qos := sdConfig()
	qos.MaxSlowdown = 10
	qos.QueueMaxSlowdown = map[string]float64{"gold": 2}
	policies := []struct {
		name string
		cfg  Config
	}{{"static", Defaults()}, {"sd", sdConfig()}, {"sd-easy", easy}, {"sd-qos", qos}}
	for _, d := range derived {
		spec, err := workload.Derive(&base, d.derivs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			runs = append(runs, decisionRun{
				name: "wl1/" + d.name + "/" + p.name,
				spec: *spec, cfg: p.cfg,
			})
		}
	}
	return runs
}

// decisionDigest runs one pinned simulation and returns its digest line
// fields: the sha256 of the results JSON and the pass count.
func decisionDigest(t *testing.T, run decisionRun) (string, uint64) {
	t.Helper()
	res, err := Run(run.spec, run.cfg)
	if err != nil {
		t.Fatalf("%s: %v", run.name, err)
	}
	js, err := json.Marshal(res.Report.Results)
	if err != nil {
		t.Fatalf("%s: %v", run.name, err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:]), res.Passes
}

// readDecisions parses the digest file into name -> "sha passes".
func readDecisions(t *testing.T, path string) (map[string]string, []string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-decisions)", err)
	}
	defer f.Close()
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[name] = rest
		order = append(order, name)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want, order
}

func TestDecisionDigests(t *testing.T) {
	path := filepath.Join("testdata", "decisions.txt")
	runs := decisionRuns(t)
	var out strings.Builder
	got := make(map[string]string, len(runs))
	for _, run := range runs {
		sum, passes := decisionDigest(t, run)
		got[run.name] = sum + " " + strconv.FormatUint(passes, 10)
		fmt.Fprintf(&out, "%s %s\n", run.name, got[run.name])
	}
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(runs), path)
		return
	}
	want, order := readDecisions(t, path)
	diverged := 0
	for _, run := range runs {
		w, ok := want[run.name]
		switch {
		case !ok:
			t.Errorf("%s: not in %s (regenerate with -update-decisions)", run.name, path)
		case w != got[run.name]:
			diverged++
			t.Errorf("%s diverged: digest/passes %s, want %s", run.name, got[run.name], w)
		}
	}
	for _, name := range order {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned in %s but no longer run", name, path)
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d runs diverged", diverged, len(runs))
	}
}
