//go:build linux

package e2e

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// mixed is a fixed-seed campaign over presets, policies, a dynamic
// cut-off, a legacy malleable_fraction and a derivation chain.
const mixed = `[
 {"workload":"wl1","scale":0.08,"seed":7,"options":{"policy":"static"}},
 {"workload":"wl1","scale":0.08,"seed":7,"options":{"policy":"sd","max_slowdown":10}},
 {"workload":"wl1","scale":0.08,"seed":7,"options":{"policy":"sd","dynamic_cutoff":"avg"}},
 {"workload":"wl2","scale":0.08,"seed":7,"options":{"policy":"sd","max_slowdown":5}},
 {"workload":"wl5","scale":0.15,"seed":3,"malleable_fraction":0.5,"options":{"policy":"sd"}},
 {"workload":"wl5","scale":0.15,"seed":3,"options":{"policy":"oversubscribe"}},
 {"workload":"wl5","scale":0.15,"seed":3,"options":{"policy":"sd"},
  "derivations":[{"op":"tag_nodes","fraction":0.5,"feature":"bigmem"},
                 {"op":"require_feature","fraction":0.3,"feature":"bigmem"}]}
]`

// slow24 is 24 unique wl1 points at scale 0.3, static and SD with
// MAXSD 10 for each of 12 seeds from first: enough shards that a fault
// timed on the fleet's state lands while some are still queued.
func slow24(first int) string {
	var pts []string
	for seed := first; seed < first+12; seed++ {
		pts = append(pts, fmt.Sprintf(`{"workload":"wl1","scale":0.3,"seed":%[1]d,"options":{"policy":"static"}},`+
			`{"workload":"wl1","scale":0.3,"seed":%[1]d,"options":{"policy":"sd","max_slowdown":10}}`, seed))
	}
	return "[" + strings.Join(pts, ",") + "]"
}

// TestFleet runs each fleet scenario against real sdserve and sdexp
// processes. Every subtest fails within its own deadline if a campaign
// hangs or a fault misses the campaign it was aimed at.
func TestFleet(t *testing.T) {
	openSources(t)
	t.Run("determinism", determinism)
	t.Run("distributed", distributed)
	t.Run("elasticity", elasticity)
	t.Run("failover", failover)
	t.Run("experiments", experiments)
	t.Run("traces", traces)
}

// determinism: sdexp prints the same bytes at 8 workers as at 1 worker
// without a cache, and a restart warmed from the -cache-dir logs prints
// them again without simulating.
func determinism(t *testing.T) {
	e := newEnv(t)
	pts := e.write("points.json", mixed)
	parallel, _ := e.sdexp("parallel", "-points", pts, "-workers", "8")
	sequential, _ := e.sdexp("sequential", "-points", pts, "-workers", "1", "-cache", "0")
	same(t, "the 8-worker run", sequential, parallel)

	cache := e.path("cache")
	cold, _ := e.sdexp("cold", "-points", pts, "-workers", "8", "-cache-dir", cache)
	warm, warmLog := e.sdexp("warm", "-points", pts, "-workers", "8", "-cache-dir", cache)
	same(t, "the warm restart", cold, warm)
	if logs, _ := filepath.Glob(filepath.Join(cache, "*.journal")); len(logs) == 0 {
		t.Fatal("-cache-dir holds no cache log")
	}
	zeroMisses(t, "the warm restart", warmLog)
}

// distributed: a coordinator over three workers merges to the
// single-process bytes, also after one worker dies; a traced campaign
// exposes well-formed metrics on both tiers and its ID in the trace
// frame and the workers' logs; and three job-array shards merge to the
// same bytes, by their cache logs and by their output lines.
func distributed(t *testing.T) {
	e := newEnv(t)
	pts := e.write("points.json", mixed)
	baseline, _ := e.sdexp("baseline", "-points", pts, "-workers", "4")
	u := e.urls(4)
	coord, workers := u[0], u[1:]
	var procs []*proc
	for i, w := range workers {
		procs = append(procs, e.serve(fmt.Sprintf("w%d", i+1), w, "-workers", "2"))
	}
	e.serve("coord", coord, "-peers", strings.Join(workers, ","))
	out, _ := e.sdexp("coordinated", "-points", pts, "-server", coord)
	same(t, "the coordinator merge", baseline, out)

	procs[2].stop(syscall.SIGTERM)
	requeued := e.metrics(coord)["fleet_shards_requeued_total"]
	out, _ = e.sdexp("survived", "-points", pts, "-server", coord)
	same(t, "the rerun without worker 3", baseline, out)
	if e.metrics(coord)["fleet_shards_requeued_total"] <= requeued {
		t.Fatal("the rerun requeued no shard: it never met the dead worker")
	}

	queued := e.metrics(coord)["fleet_shards_queued_total"]
	e.create(coord+"/v1/campaigns", "ci-trace-1", `{"points":`+mixed+`,"trace":true}`)
	e.until("the coordinator queueing the traced campaign's shards", func() bool {
		return e.metrics(coord)["fleet_shards_queued_total"] > queued
	})
	if e.metrics(workers[0])["campaign_points_completed_total"] == 0 {
		t.Fatal("worker 1 /metrics counts no completed points")
	}
	traces := slices.DeleteFunc(e.frames(coord+"/v1/campaigns/ci-trace-1"), func(f frame) bool { return !f.Trace })
	if len(traces) != 1 {
		t.Fatalf("%d trace frames, want 1", len(traces))
	}
	if tr := traces[0]; tr.CampaignID != "ci-trace-1" || tr.Points == 0 || len(tr.Shards) == 0 || len(tr.Peers) == 0 {
		t.Fatalf("trace frame %+v", tr)
	}
	if !strings.Contains(e.read(procs[0].log)+e.read(procs[1].log), "campaign_id=ci-trace-1") {
		t.Fatal("the campaign ID never reached a worker's log")
	}

	merged := e.path("merged")
	e.must(os.Mkdir(merged, 0o755))
	var shards []string
	for i := 1; i <= 3; i++ {
		dir := e.path(fmt.Sprintf("cache%d", i))
		out, _ := e.sdexp(fmt.Sprintf("shard%d", i), "-points", pts, "-shard", fmt.Sprintf("%d/3", i), "-cache-dir", dir)
		shards = append(shards, out)
		logs, _ := filepath.Glob(filepath.Join(dir, "*.journal"))
		for _, l := range logs {
			e.write(filepath.Join("merged", filepath.Base(l)), e.read(l))
		}
	}
	out, replayLog := e.sdexp("replay", "-points", pts, "-cache-dir", merged)
	same(t, "the replay from the merged shard logs", baseline, out)
	zeroMisses(t, "the replay from the merged shard logs", replayLog)
	same(t, "the shard interleave", baseline, interleave(shards...))
}

// elasticity: a static worker killed mid-campaign and restarted without
// -join is probed back, a worker joining mid-campaign steals queued
// shards, both campaigns print the single-process bytes, and the
// coordinator's cache logs, left by kill -9, warm a local run to zero
// simulations.
func elasticity(t *testing.T) {
	e := newEnv(t)
	ptsA, ptsB := e.write("a.json", slow24(1)), e.write("b.json", slow24(101))
	baseA, _ := e.sdexp("baseline-a", "-points", ptsA, "-workers", "4")
	baseB, _ := e.sdexp("baseline-b", "-points", ptsB, "-workers", "4")
	u := e.urls(5)
	coord, wA, wB, wC, wD := u[0], u[1], u[2], u[3], u[4]
	cache := e.path("coordcache")
	procA := e.serve("wA", wA, "-workers", "1")
	procCoord := e.serve("coord", coord, "-peers", wA, "-probe-interval", "200ms", "-cache-dir", cache)
	e.serve("wB", wB, "-workers", "1", "-join", coord, "-lease-ttl", "5s")
	e.serve("wC", wC, "-workers", "1", "-join", coord, "-lease-ttl", "5s")
	e.until("3 alive peers", func() bool { return len(e.alive(coord)) == 3 })

	client := e.start("elastic", "sdexp", "-points", ptsA, "-server", coord)
	e.until("worker A simulating", func() bool { return e.metrics(wA)["campaign_points_started_total"] > 0 })
	procA.stop(syscall.SIGTERM)
	e.serve("wA2", wA, "-workers", "1")
	e.until("worker A probed back into rotation", func() bool { return slices.Contains(e.alive(coord), wA) })
	e.wait(client)
	same(t, "the kill-and-restart campaign", baseA, e.read(client.out))
	if e.metrics(coord)["fleet_shards_requeued_total"] == 0 {
		t.Fatal("killing worker A requeued no shard: the fault missed the campaign")
	}

	started := e.sum("campaign_points_started_total", wA, wB, wC)
	client = e.start("joined", "sdexp", "-points", ptsB, "-server", coord)
	e.until("campaign B simulating", func() bool { return e.sum("campaign_points_started_total", wA, wB, wC) > started })
	e.serve("wD", wD, "-workers", "1", "-join", coord, "-lease-ttl", "5s")
	e.wait(client)
	same(t, "the late-joiner campaign", baseB, e.read(client.out))
	if e.health(wD).CacheMisses == 0 {
		t.Fatal("the late joiner simulated nothing: it stole no shard")
	}

	procCoord.stop(syscall.SIGKILL)
	warm, warmLog := e.sdexp("warm", "-points", ptsA, "-workers", "4", "-cache-dir", cache)
	same(t, "the run warmed from the coordinator's cache logs", baseA, warm)
	zeroMisses(t, "the run warmed from the coordinator's cache logs", warmLog)
}

// failover: kill -9 of the active coordinator mid-campaign; the standby
// sharing its journal adopts the journal and peer table, the client
// rides through with the single-process bytes, and no journaled point
// simulates again.
func failover(t *testing.T) {
	e := newEnv(t)
	pts := e.write("points.json", slow24(1))
	baseline, _ := e.sdexp("baseline", "-points", pts, "-workers", "4")
	if n := strings.Count(baseline, "\n"); n != 24 {
		t.Fatalf("baseline has %d lines, want 24", n)
	}
	u := e.urls(4)
	active, standby, w1, w2 := u[0], u[1], u[2], u[3]
	journal := e.path("journal")
	coordArgs := []string{"-coordinator", "-journal-dir", journal, "-journal-lease", "2s", "-probe-interval", "200ms"}
	procActive := e.serve("active", active, coordArgs...)
	procStandby := e.serve("standby", standby, append(coordArgs, "-standby")...)
	for i, w := range []string{w1, w2} {
		e.serve(fmt.Sprintf("w%d", i+1), w, "-workers", "1", "-join", active+","+standby, "-lease-ttl", "6s")
	}
	e.until("the active coordinator holding the lease", func() bool { return e.health(active).Role == "active" })
	if role := e.health(standby).Role; role != "standby" {
		t.Fatalf("standby role %q", role)
	}
	e.until("2 alive workers", func() bool { return len(e.alive(active)) == 2 })

	client := e.start("failover", "sdexp", "-points", pts, "-server", active+","+standby)
	e.until("4 journaled results", func() bool {
		n, err := journaledResults(journal)
		return err == nil && n >= 4
	})
	procActive.stop(syscall.SIGKILL)
	// The dead coordinator was the journal's only writer, and the
	// workers finish the shards it left them before the snapshot.
	journaled, err := journaledResults(journal)
	e.must(err)
	e.until("the workers idle", func() bool { return e.health(w1).InFlight+e.health(w2).InFlight == 0 })
	before := e.sum("campaign_points_completed_total", w1, w2)
	if role := e.health(standby).Role; role != "standby" {
		t.Fatalf("the standby turned %q before the snapshot", role)
	}
	if journaled < 1 || journaled >= 24 {
		t.Fatalf("the kill did not land mid-campaign: %d of 24 results journaled", journaled)
	}
	e.wait(client)
	same(t, "the failover campaign", baseline, e.read(client.out))
	if n, budget := e.sum("campaign_points_completed_total", w1, w2)-before, 24-journaled; n > float64(budget) {
		t.Fatalf("%v simulations after the failover, budget %d: journaled points ran again", n, budget)
	}
	m := e.metrics(standby)
	for series, want := range map[string]float64{
		"failover_adoptions_total":             1,
		"campaigns_resumed_total":              1,
		"campaign_resume_points_skipped_total": float64(journaled),
		"coordinator_lease_held":               1,
	} {
		if m[series] != want {
			t.Errorf("standby %s = %v, want %v", series, m[series], want)
		}
	}
	if role, alive := e.health(standby).Role, e.alive(standby); role != "active" || len(alive) != 2 {
		t.Fatalf("standby is %q with alive workers %v, want active with 2", role, alive)
	}
	if !strings.Contains(e.read(procStandby.log), "adopted") {
		t.Fatalf("the standby's log never reports adopting the journal:\n%s", e.read(procStandby.log))
	}
}

// experiments: registry experiments print the same bytes locally and
// through a coordinator over two workers, which lists the registry and
// counts the experiments on /metrics.
func experiments(t *testing.T) {
	e := newEnv(t)
	if list, _ := e.sdexp("list", "-experiment", "list"); !strings.Contains(list, "table1") {
		t.Fatalf("-experiment list:\n%s", list)
	}
	u := e.urls(3)
	coord := u[0]
	e.serve("w1", u[1], "-workers", "2")
	e.serve("w2", u[2], "-workers", "2")
	e.serve("coord", coord, "-peers", u[1]+","+u[2])
	type named struct{ Name string }
	var reg struct{ Experiments []named }
	e.getJSON(coord+"/v1/experiments", &reg)
	if !slices.Contains(reg.Experiments, named{"table1"}) || !slices.Contains(reg.Experiments, named{"sweep_maxsd"}) {
		t.Fatalf("the registry lists %v", reg.Experiments)
	}
	for _, name := range []string{"table1", "compare_policies"} {
		local, _ := e.sdexp("local-"+name, "-experiment", name, "-scale", "0.08")
		remote, _ := e.sdexp("remote-"+name, "-experiment", name, "-scale", "0.08", "-server", coord)
		same(t, name+" through the coordinator", local, remote)
	}
	m := e.metrics(coord)
	for _, series := range []string{
		`experiments_started_total{experiment="table1"}`,
		`experiments_completed_total{experiment="table1",outcome="done"}`,
		"experiment_attaches_total",
	} {
		if m[series] < 1 {
			t.Errorf("coordinator %s = %v, want at least 1", series, m[series])
		}
	}
}

// traces: the sample SWF compiles to a stable trace:<digest>; a derived
// scenario addressed by it prints the same bytes in one process, as two
// interleaved shards, warm from the cache logs without simulating, and
// through a coordinator whose workers load -trace-dir; /v1/workloads
// lists the trace beside the presets; sdexp -experiment real_trace on
// the registered sample prints the same bytes locally and through the
// coordinator, and real_trace runs on the fleet. The scenario and the
// fleet's real_trace replay the sample at 3x its load, where SD makes
// malleable starts (at the experiment's default 1.5x it makes none and
// equals static backfill), so the byte diffs compare SD's decisions.
// The sdexp -experiment real_trace diff stays at the default load:
// sdexp passes no load factor.
func traces(t *testing.T) {
	e := newEnv(t)
	digestOf := regexp.MustCompile(` as (trace:[0-9a-f]+) `)
	_, first := e.sdexp("register", "-trace", "testdata/sample.swf", "-exp", "none")
	_, again := e.sdexp("register-again", "-trace", "testdata/sample.swf", "-exp", "none")
	m, m2 := digestOf.FindStringSubmatch(first), digestOf.FindStringSubmatch(again)
	if m == nil || m2 == nil || m2[1] != m[1] {
		t.Fatalf("two registrations of the same bytes did not print one digest:\n%s%s", first, again)
	}
	digest := m[1]
	derivs := `{"op":"scale_load","fraction":0,"factor":3},{"op":"malleable_fraction","fraction":0.3}`
	pts := e.write("points.json", fmt.Sprintf(`[
 {"workload":%[1]q,"derivations":[%[2]s],"options":{"policy":"static"}},
 {"workload":%[1]q,"derivations":[%[2]s],"options":{"policy":"sd","max_slowdown":10}},
 {"workload":%[1]q,"derivations":[%[2]s,{"op":"assign_qos","fraction":0.5,"class":"gold"}],
  "options":{"policy":"sd","max_slowdown":10}}]`, digest, derivs))
	local := []string{"-trace", "testdata/sample.swf", "-points", pts}
	cache := e.path("tracecache")
	baseline, _ := e.sdexp("baseline", append(local, "-cache-dir", cache)...)
	if n := strings.Count(baseline, "\n"); n != 3 {
		t.Fatalf("baseline has %d lines, want 3", n)
	}
	for i, line := range strings.Split(strings.TrimSpace(baseline), "\n")[1:] {
		var l struct {
			Result struct {
				MalleableStarts int `json:"malleable_starts"`
			} `json:"result"`
		}
		e.must(json.Unmarshal([]byte(line), &l))
		if l.Result.MalleableStarts == 0 {
			t.Fatalf("SD point %d made no malleable start: %s", i+1, line)
		}
	}
	half1, _ := e.sdexp("shard1", append(local, "-shard", "1/2")...)
	half2, _ := e.sdexp("shard2", append(local, "-shard", "2/2")...)
	same(t, "the shard interleave", baseline, interleave(half1, half2))
	warm, warmLog := e.sdexp("warm", append(local, "-cache-dir", cache)...)
	same(t, "the warm rerun", baseline, warm)
	zeroMisses(t, "the warm rerun", warmLog)

	u := e.urls(3)
	coord := u[0]
	e.serve("w1", u[1], "-workers", "2", "-trace-dir", "testdata")
	e.serve("w2", u[2], "-workers", "2", "-trace-dir", "testdata")
	procCoord := e.serve("coord", coord, "-trace-dir", "testdata", "-peers", u[1]+","+u[2])
	if !strings.Contains(e.read(procCoord.log), "registered trace testdata/sample.swf as "+digest) {
		t.Fatalf("the coordinator did not register the sample as %s:\n%s", digest, e.read(procCoord.log))
	}
	out, _ := e.sdexp("coordinated", "-points", pts, "-server", coord)
	same(t, "the coordinator trace campaign", baseline, out)

	type workload struct {
		Ref, Source string
		Jobs, Nodes int
	}
	type op struct{ Op string }
	var list struct {
		Workloads   []workload
		Derivations []op
	}
	e.getJSON(coord+"/v1/workloads", &list)
	refs := map[string]workload{}
	for _, w := range list.Workloads {
		refs[w.Ref] = w
	}
	for _, name := range []string{"wl1", "wl2", "wl3", "wl4", "wl5"} {
		if refs[name].Source != "generator" {
			t.Errorf("/v1/workloads %s: %+v", name, refs[name])
		}
	}
	if w := refs[digest]; w.Source != "trace" || w.Jobs != 100 {
		t.Errorf("/v1/workloads %s: %+v", digest, w)
	}
	for _, name := range []string{"scale_load", "shift_arrivals", "assign_qos", "malleable_fraction", "tag_nodes", "require_feature"} {
		if !slices.Contains(list.Derivations, op{name}) {
			t.Errorf("/v1/workloads lacks derivation op %s", name)
		}
	}
	var tr, gen workload
	if e.getJSON(coord+"/v1/workloads/"+digest, &tr); tr.Source != "trace" || tr.Nodes == 0 {
		t.Errorf("/v1/workloads/%s: %+v", digest, tr)
	}
	if e.getJSON(coord+"/v1/workloads/wl1?scale=0.1&seed=1", &gen); gen.Source != "generator" || gen.Jobs == 0 {
		t.Errorf("/v1/workloads/wl1: %+v", gen)
	}

	realTrace := []string{"-trace", "testdata/sample.swf", "-experiment", "real_trace"}
	realLocal, _ := e.sdexp("real-trace", realTrace...)
	realCoord, _ := e.sdexp("real-trace-coordinated", append(realTrace, "-server", coord)...)
	same(t, "the coordinator's real_trace", realLocal, realCoord)

	loc := e.create(coord+"/v1/experiments", "", fmt.Sprintf(`{"experiment":"real_trace","params":{"trace":%q,"load_factor":3}}`, digest))
	fs := e.frames(coord + loc)
	if len(fs) == 0 {
		t.Fatal("the real_trace stream is empty")
	}
	if end := fs[len(fs)-1]; !end.Done || end.Error != nil || end.Summary == nil || end.Summary.Static.Jobs != 100 || end.Summary.SD.MalleableStarts == 0 {
		t.Fatalf("real_trace ended with %+v, want done with a summary over 100 static jobs and an SD run that made a malleable start", end)
	}
}
