package sdpolicy

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
)

// shardTestPoints is a small mixed campaign: duplicate points (shared
// static baseline), a legacy malleable_fraction spelling, and a
// derivation chain — everything the canonical-key co-location and the
// wire round trip have to get right.
func shardTestPoints() []Point {
	static := NewPoint("wl5", 0.2, 1, Options{Policy: "static"})
	mf := NewPoint("wl5", 0.2, 1, Options{Policy: "sd"})
	mf.MalleableFraction = 0.5
	return []Point{
		static,
		NewPoint("wl5", 0.2, 1, Options{Policy: "sd", MaxSlowdown: 10}),
		static, // duplicate: must co-locate with position 0
		mf,
		NewDerivedPoint("wl5", 0.2, 1, Options{Policy: "sd"}, MalleableFractionDerivation(0.5)),
		NewPoint("wl5", 0.2, 2, Options{Policy: "oversubscribe"}),
	}
}

// TestShardedRunMatchesSingleProcess: for every shard count, running
// each shard in its own engine (separate process stand-in) and merging
// reproduces the single-engine campaign exactly.
func TestShardedRunMatchesSingleProcess(t *testing.T) {
	ctx := context.Background()
	points := shardTestPoints()
	want, err := NewEngine(2, 64).Run(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(points)+1; n++ {
		shards, err := PlanShards(points, n)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]*Result, len(shards))
		// Merge in reverse completion order to exercise order freedom.
		for i := len(shards) - 1; i >= 0; i-- {
			engine := NewEngine(2, 64)
			res, err := engine.Run(ctx, shards[i].Points)
			if err != nil {
				t.Fatalf("n=%d shard %d: %v", n, i, err)
			}
			results[i] = res
		}
		merged, err := MergeShardResults(len(points), shards, results)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for p := range want {
			gotJSON, _ := json.Marshal(merged[p])
			wantJSON, _ := json.Marshal(want[p])
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("n=%d point %d: merged %s, want %s", n, p, gotJSON, wantJSON)
			}
		}
	}
}

// TestPlanShardsCoLocatesCanonicalDuplicates: the two spellings of
// "half the jobs malleable" — the legacy field and the derivation op —
// canonicalise equally and must land in the same shard.
func TestPlanShardsCoLocatesCanonicalDuplicates(t *testing.T) {
	points := shardTestPoints()
	for n := 1; n <= 4; n++ {
		shards, err := PlanShards(points, n)
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[int]int) // original position -> shard
		for _, s := range shards {
			for _, pos := range s.Positions {
				owner[pos] = s.Index
			}
		}
		if owner[0] != owner[2] {
			t.Fatalf("n=%d: duplicate static points split across shards %d and %d", n, owner[0], owner[2])
		}
		if owner[3] != owner[4] {
			t.Fatalf("n=%d: legacy fraction (shard %d) and derivation (shard %d) spellings split", n, owner[3], owner[4])
		}
	}
}

// TestPlanShardsRejectsInvalidPoints: a bad point fails at planning
// time, not on whichever remote worker drew it.
func TestPlanShardsRejectsInvalidPoints(t *testing.T) {
	bad := NewPoint("wl5", math.NaN(), 1, Options{})
	if _, err := PlanShards([]Point{bad}, 2); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	if _, err := PlanShards(shardTestPoints(), 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("n=0: err = %v, want ErrBadInput", err)
	}
}

// TestCampaignShardWireRoundTrip: a shard is self-describing — its
// JSON round-trips with the derivation chains and legacy sentinel
// intact, so a job-array worker can be handed nothing but the shard.
func TestCampaignShardWireRoundTrip(t *testing.T) {
	shards, err := PlanShards(shardTestPoints(), 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(shards)
	if err != nil {
		t.Fatal(err)
	}
	var back []CampaignShard
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		for j := range shards[i].Points {
			if shards[i].Points[j].canonical() != back[i].Points[j].canonical() {
				t.Fatalf("shard %d point %d changed across the wire: %+v vs %+v",
					i, j, shards[i].Points[j], back[i].Points[j])
			}
		}
	}
}

// TestPlanFleetShards: fleet planning multiplies granularity per
// worker (defaulting when unset), returns the positions PlanShards
// plans at that granularity, keeps full positional coverage, and
// rejects an empty fleet.
func TestPlanFleetShards(t *testing.T) {
	points := shardTestPoints()
	shards, err := PlanFleetShards(points, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 6 {
		t.Fatalf("%d shards for fleet 3 × 2/worker, want 6", len(shards))
	}
	planned, err := PlanShards(points, 6)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, len(points))
	for i, positions := range shards {
		if !slices.Equal(positions, planned[i].Positions) {
			t.Fatalf("shard %d positions %v, PlanShards plans %v", i, positions, planned[i].Positions)
		}
		for _, pos := range positions {
			if covered[pos] {
				t.Fatalf("position %d planned twice", pos)
			}
			covered[pos] = true
		}
	}
	for pos, ok := range covered {
		if !ok {
			t.Fatalf("position %d unplanned", pos)
		}
	}

	// perWorker <= 0 falls back to the default granularity.
	shards, err = PlanFleetShards(points, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2*DefaultShardsPerWorker {
		t.Fatalf("%d shards with default granularity, want %d", len(shards), 2*DefaultShardsPerWorker)
	}

	if _, err := PlanFleetShards(points, 0, 4); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty fleet: err %v, want ErrBadInput", err)
	}
}

func TestPlanResume(t *testing.T) {
	points := shardTestPoints()
	remaining, pts, err := PlanResume(points, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(remaining) != len(points)-2 || len(pts) != len(remaining) {
		t.Fatalf("resume plan %v over %d points", remaining, len(points))
	}
	for i, pos := range remaining {
		if pos == 0 || pos == 2 {
			t.Fatalf("checkpointed position %d re-planned", pos)
		}
		if pts[i] != points[pos] {
			t.Fatalf("pts[%d] != points[%d]", i, pos)
		}
	}
	if _, _, err := PlanResume(points, []int{len(points)}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("out-of-range checkpoint: %v, want ErrBadInput", err)
	}
	if _, _, err := PlanResume(points, []int{1, 1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("duplicate checkpoint: %v, want ErrBadInput", err)
	}
	// A fully checkpointed campaign resumes to nothing.
	all := make([]int, len(points))
	for i := range all {
		all[i] = i
	}
	remaining, pts, err = PlanResume(points, all)
	if err != nil || len(remaining) != 0 || len(pts) != 0 {
		t.Fatalf("fully checkpointed: %v, %v, %v", remaining, pts, err)
	}
}
