// Package workload builds the five evaluation workloads of the paper
// (Table 1): synthetic re-implementations of the Cirne-Berman
// supercomputer workload model with the ANL daily arrival pattern, plus
// RICC-like and CEA-Curie-like trace generators matching the published
// characterisation of those logs, and the real-run application workload
// of Table 2.
//
// The real RICC and CEA-Curie SWF logs are proprietary downloads; these
// generators stand in for them, and FromTrace loads the real logs where
// they are available (README, "Workloads & traces"). All generators are
// fully deterministic given their seed.
package workload

import (
	"fmt"
	"math"
	"sort"

	"sdpolicy/internal/apps"
	"sdpolicy/internal/cluster"
	"sdpolicy/internal/job"
	"sdpolicy/internal/stats"
)

// Spec is a complete simulation input: a machine and its job stream.
type Spec struct {
	Name    string
	Cluster cluster.Config
	Jobs    []job.Job
	// NodeFeatures optionally tags nodes with attribute strings
	// (heterogeneous machines); the simulator applies them before
	// scheduling starts.
	NodeFeatures map[int][]string
}

// Validate reports the first structural problem: invalid job records,
// submissions out of order, or jobs larger than the machine.
func (s *Spec) Validate() error {
	if err := s.Cluster.Validate(); err != nil {
		return err
	}
	var prev int64
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if err := j.Validate(); err != nil {
			return err
		}
		if j.Submit < prev {
			return fmt.Errorf("workload %s: job %d submitted before its predecessor", s.Name, j.ID)
		}
		prev = j.Submit
		if j.ReqNodes > s.Cluster.Nodes {
			return fmt.Errorf("workload %s: job %d requests %d of %d nodes",
				s.Name, j.ID, j.ReqNodes, s.Cluster.Nodes)
		}
	}
	for nd := range s.NodeFeatures {
		if nd < 0 || nd >= s.Cluster.Nodes {
			return fmt.Errorf("workload %s: features on unknown node %d", s.Name, nd)
		}
	}
	return nil
}

// TotalWork returns the node-seconds of static work in the stream.
func (s *Spec) TotalWork() float64 {
	var w float64
	for i := range s.Jobs {
		w += float64(s.Jobs[i].ReqNodes) * float64(s.Jobs[i].ActualTime)
	}
	return w
}

// anlHourWeights is the two-peak working-hours arrival modulation of the
// ANL pattern the paper configures the Cirne model with: quiet nights,
// a morning ramp, lunchtime dip and afternoon peak. Mean is ~1.
var anlHourWeights = [24]float64{
	0.38, 0.32, 0.30, 0.30, 0.32, 0.40,
	0.60, 0.95, 1.40, 1.70, 1.80, 1.65,
	1.45, 1.60, 1.80, 1.80, 1.70, 1.50,
	1.15, 0.95, 0.80, 0.70, 0.58, 0.45,
}

// Params drives the generic synthetic generator underlying all Table 1
// workloads.
type Params struct {
	Name  string
	Jobs  int
	Seed  uint64
	Nodes int // machine size
	// Size distribution.
	MaxNodes   int     // largest request
	SerialProb float64 // probability of a single-node job
	Power2Prob float64 // probability a multi-node size snaps to a power of two
	SizeAlpha  float64 // bounded-Pareto tail index for multi-node sizes
	// Runtime distribution: lognormal, clamped to [MinRuntime, MaxRuntime].
	RunMu, RunSigma        float64
	MinRuntime, MaxRuntime int64
	// Request accuracy: probability the user request is exact, and the
	// range of actual/requested ratios otherwise.
	ExactReqProb  float64
	MinAccuracy   float64
	ExactRequests bool // WL2: every request equals the runtime
	MaxRequest    int64
	// Load is the offered utilisation (work / capacity·span) the arrival
	// rate is tuned to.
	Load float64
	// MalleableFrac is the fraction of jobs flagged malleable; the rest
	// are rigid.
	MalleableFrac float64
}

func (p Params) validate() error {
	switch {
	case p.Jobs <= 0:
		return fmt.Errorf("workload: non-positive job count %d", p.Jobs)
	case p.MaxNodes <= 0 || p.MaxNodes > p.Nodes:
		return fmt.Errorf("workload: max job size %d out of (0,%d]", p.MaxNodes, p.Nodes)
	case p.Load <= 0:
		return fmt.Errorf("workload: non-positive load %v", p.Load)
	case p.MinRuntime <= 0 || p.MaxRuntime < p.MinRuntime:
		return fmt.Errorf("workload: bad runtime clamp [%d,%d]", p.MinRuntime, p.MaxRuntime)
	case p.MalleableFrac < 0 || p.MalleableFrac > 1:
		return fmt.Errorf("workload: malleable fraction %v out of [0,1]", p.MalleableFrac)
	}
	return nil
}

// Generate builds a workload from the parameters on the given machine
// configuration.
func Generate(cfg cluster.Config, p Params) Spec {
	if p.Nodes == 0 {
		p.Nodes = cfg.Nodes
	}
	if err := p.validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(p.Seed, 0x5d0) // second word fixed: one stream per seed
	jobs := make([]job.Job, p.Jobs)

	// Draw sizes and runtimes first so the arrival rate can be tuned to
	// the requested offered load.
	var work float64
	for i := range jobs {
		nodes := drawSize(rng, p)
		actual := drawRuntime(rng, p)
		req := actual
		if !p.ExactRequests && !rng.Bernoulli(p.ExactReqProb) {
			// Users overestimate: actual = req * u with u in
			// [MinAccuracy, 1).
			u := rng.Uniform(p.MinAccuracy, 1)
			req = int64(math.Ceil(float64(actual) / u))
		}
		if p.MaxRequest > 0 && req > p.MaxRequest {
			req = p.MaxRequest
			if actual > req {
				actual = req
			}
		}
		kind := job.Rigid
		if rng.Bernoulli(p.MalleableFrac) {
			kind = job.Malleable
		}
		jobs[i] = job.Job{
			ID: job.ID(i + 1), ReqTime: req, ActualTime: actual,
			ReqNodes: nodes, TasksPerNode: 1, Kind: kind,
		}
		work += float64(nodes) * float64(actual)
	}

	// Arrival process: exponential gaps modulated by the ANL daily
	// cycle, with the base rate set so offered work fills Load of the
	// machine over the submission span. Because long night gaps make the
	// process spend disproportionate wall time in low-rate hours, the raw
	// series is rescaled onto the intended span so the offered load is
	// met exactly.
	span := work / (float64(cfg.Nodes) * p.Load)
	meanGap := span / float64(p.Jobs)
	raw := make([]float64, p.Jobs)
	var t float64
	for i := range raw {
		hour := int(t/3600) % 24
		gap := rng.Exponential(meanGap) / anlHourWeights[hour]
		t += gap
		raw[i] = t
	}
	factor := 1.0
	if t > 0 {
		factor = span / t
	}
	for i := range jobs {
		jobs[i].Submit = int64(raw[i] * factor)
	}

	spec := Spec{Name: p.Name, Cluster: cfg, Jobs: jobs}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return spec
}

func drawSize(rng *stats.RNG, p Params) int {
	if rng.Bernoulli(p.SerialProb) || p.MaxNodes == 1 {
		return 1
	}
	if p.MaxNodes <= 2 {
		return p.MaxNodes
	}
	alpha := p.SizeAlpha
	if alpha <= 0 {
		alpha = 1.0
	}
	n := int(rng.Pareto(alpha, 2, float64(p.MaxNodes)))
	if rng.Bernoulli(p.Power2Prob) {
		// snap to the nearest power of two within bounds
		exp := math.Round(math.Log2(float64(n)))
		n = int(math.Pow(2, exp))
	}
	if n < 2 {
		n = 2
	}
	if n > p.MaxNodes {
		n = p.MaxNodes
	}
	return n
}

func drawRuntime(rng *stats.RNG, p Params) int64 {
	r := int64(rng.LogNormal(p.RunMu, p.RunSigma))
	if r < p.MinRuntime {
		r = p.MinRuntime
	}
	if r > p.MaxRuntime {
		r = p.MaxRuntime
	}
	return r
}

func scaleCount(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

// WL1 is workload 1 of Table 1: the Cirne model scaled to a 1024-node,
// 48-core machine, 5000 jobs, largest job 128 nodes. scale in (0,1]
// shrinks both the machine and the job count for faster experiments.
func WL1(scale float64, seed uint64) Spec {
	cfg := cluster.Config{Nodes: scaleCount(1024, scale), Sockets: 2, CoresPerSocket: 24}
	return Generate(cfg, Params{
		Name: "wl1-cirne", Jobs: scaleCount(5000, scale), Seed: seed,
		Nodes:    cfg.Nodes,
		MaxNodes: minInt(scaleCount(128, scale), cfg.Nodes), SerialProb: 0.30,
		Power2Prob: 0.75, SizeAlpha: 0.9,
		RunMu: 6.4, RunSigma: 2.5, MinRuntime: 15, MaxRuntime: 2 * 86400,
		ExactReqProb: 0.15, MinAccuracy: 0.08, MaxRequest: 3 * 86400,
		Load: 2.2, MalleableFrac: 1.0,
	})
}

// WL2 is workload 2: identical distributions to WL1 but with exact user
// requests (Cirne_ideal).
func WL2(scale float64, seed uint64) Spec {
	cfg := cluster.Config{Nodes: scaleCount(1024, scale), Sockets: 2, CoresPerSocket: 24}
	s := Generate(cfg, Params{
		Name: "wl2-cirne-ideal", Jobs: scaleCount(5000, scale), Seed: seed,
		Nodes:    cfg.Nodes,
		MaxNodes: minInt(scaleCount(128, scale), cfg.Nodes), SerialProb: 0.30,
		Power2Prob: 0.75, SizeAlpha: 0.9,
		RunMu: 6.4, RunSigma: 2.5, MinRuntime: 15, MaxRuntime: 2 * 86400,
		ExactRequests: true,
		Load:          2.2, MalleableFrac: 1.0,
	})
	return s
}

// WL3 is workload 3: a RICC-like trace — a 1024-node, 8-core machine
// dominated by small jobs (≤72 nodes) with runtimes from minutes up to
// four days.
func WL3(scale float64, seed uint64) Spec {
	cfg := cluster.Config{Nodes: scaleCount(1024, scale), Sockets: 2, CoresPerSocket: 4}
	return Generate(cfg, Params{
		Name: "wl3-ricc", Jobs: scaleCount(10000, scale), Seed: seed,
		Nodes:    cfg.Nodes,
		MaxNodes: minInt(scaleCount(72, scale), cfg.Nodes), SerialProb: 0.50,
		Power2Prob: 0.40, SizeAlpha: 1.2,
		RunMu: 6.2, RunSigma: 2.5, MinRuntime: 10, MaxRuntime: 4 * 86400,
		ExactReqProb: 0.10, MinAccuracy: 0.05, MaxRequest: 4 * 86400,
		Load: 1.8, MalleableFrac: 1.0,
	})
}

// WL4 is workload 4: a CEA-Curie-like trace — a 5040-node, 16-core
// machine with 198509 jobs over roughly eight months, heavy-tailed sizes
// up to nearly the full machine.
func WL4(scale float64, seed uint64) Spec {
	cfg := cluster.Config{Nodes: scaleCount(5040, scale), Sockets: 2, CoresPerSocket: 8}
	return Generate(cfg, Params{
		Name: "wl4-curie", Jobs: scaleCount(198509, scale), Seed: seed,
		Nodes:    cfg.Nodes,
		MaxNodes: minInt(scaleCount(4988, scale), cfg.Nodes), SerialProb: 0.45,
		Power2Prob: 0.55, SizeAlpha: 1.4,
		RunMu: 5.6, RunSigma: 2.5, MinRuntime: 10, MaxRuntime: 3 * 86400,
		ExactReqProb: 0.12, MinAccuracy: 0.05, MaxRequest: 3 * 86400,
		Load: 1.1, MalleableFrac: 1.0,
	})
}

// WL5 is workload 5: the real-run workload — the Cirne model converted
// to submissions of the Table 2 applications on the 49-node MareNostrum4
// partition (one controller node excluded from computing in the paper;
// here all 49 nodes compute, matching the 2352-core figure).
func WL5(scale float64, seed uint64) Spec {
	cfg := cluster.Config{Nodes: scaleCount(49, scale), Sockets: 2, CoresPerSocket: 24}
	s := Generate(cfg, Params{
		Name: "wl5-realrun", Jobs: scaleCount(2000, scale), Seed: seed,
		Nodes:    cfg.Nodes,
		MaxNodes: minInt(scaleCount(16, scale), cfg.Nodes), SerialProb: 0.35,
		Power2Prob: 0.70, SizeAlpha: 1.0,
		RunMu: 5.2, RunSigma: 2.2, MinRuntime: 15, MaxRuntime: 12 * 3600,
		ExactReqProb: 0.20, MinAccuracy: 0.15, MaxRequest: 24 * 3600,
		Load: 2.2, MalleableFrac: 1.0,
	})
	assignApps(&s, seed)
	return s
}

// assignApps distributes the Table 2 application classes over the jobs.
func assignApps(s *Spec, seed uint64) {
	rng := stats.NewRNG(seed, 0xA995)
	mix := apps.Table2Mix()
	weights := make([]float64, len(mix))
	for i, m := range mix {
		weights[i] = m.Share
	}
	for i := range s.Jobs {
		s.Jobs[i].App = mix[rng.Categorical(weights)].App
	}
}

// ByName returns the preset workload with the given Table 1 id
// ("wl1".."wl5").
func ByName(name string, scale float64, seed uint64) (Spec, error) {
	switch name {
	case "wl1":
		return WL1(scale, seed), nil
	case "wl2":
		return WL2(scale, seed), nil
	case "wl3":
		return WL3(scale, seed), nil
	case "wl4":
		return WL4(scale, seed), nil
	case "wl5":
		return WL5(scale, seed), nil
	}
	return Spec{}, fmt.Errorf("workload: unknown preset %q", name)
}

// Names lists the preset ids in Table 1 order.
func Names() []string { return []string{"wl1", "wl2", "wl3", "wl4", "wl5"} }

// AppCounts tallies jobs per application class, for the Table 2 report.
func AppCounts(s *Spec) map[job.AppClass]int {
	out := map[job.AppClass]int{}
	for i := range s.Jobs {
		out[s.Jobs[i].App]++
	}
	return out
}

// SortBySubmit orders jobs by submission time (stable), reassigning
// dense ids; generators already emit sorted streams, this is for jobs
// loaded from SWF files.
func SortBySubmit(jobs []job.Job) {
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	for i := range jobs {
		jobs[i].ID = job.ID(i + 1)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
