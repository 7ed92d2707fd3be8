// Command perfbench is the repository benchmark. It runs the golden
// campaign — the 45 points of testdata/golden_equivalence.ndjson, every
// workload preset crossed with every policy and cut-off variant — and
// checks every delivered result against the committed oracle bytes.
//
// Workloads:
//
//	inprocess   the campaign on an in-process sdpolicy.Engine with two
//	            simulation workers and no result cache: the library
//	            path, every point simulated
//	cold_fleet  the campaign as a /v1/campaigns resource on a journaled
//	            sdserve coordinator fanning out over HTTP to two sdserve
//	            workers (one simulation worker each) whose result caches
//	            are off, so every point simulates
//	hot_fleet   the same fleet with worker caches that the set-up
//	            campaign warmed, so every point is a cache hit and the
//	            HTTP hops, journal and encoding are all the work; each
//	            campaign submits the golden points hotCopies times
//
// A run is setupRounds segments. Each sets up a fresh system (starts it
// and runs one campaign to warm it), then runs campaigns on it
// closed-loop, one at a time, for its share of -seconds; every campaign
// submits the points in its own order, drawn from -seed. With -trace 0
// the result carries the end-to-end metrics:
//
//	points_per_s  points delivered per second of campaign time
//	point_p95_ms  95th percentile, over every point of every campaign,
//	              of the time from submission until the client holds
//	              that point's result
//	setup_s       median set-up time
//
// Every time in them is scaled to reference host speed (calibrate.go).
// The per-point median is not reported: within a campaign, when a
// point completes depends mostly on where the submission order put the
// expensive wl4 points, not on the system. With -trace 1 every process
// of the system is CPU-profiled for the window and the result carries
// the CPU time per point of each layer instead (profile.go), with the
// cache, wire and journal counters and the raw, unscaled campaign time.
// The last line of standard output is the JSON result.
//
// perfbench/run.sh builds the harness and sdserve and runs it from the
// checkout root:
//
//	bash perfbench/run.sh -workload hot_fleet -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

const (
	// simWorkers is how many points the system under test simulates at
	// once, in every workload.
	simWorkers = 2
	// setupRounds is how many systems a run sets up and measures.
	setupRounds = 3
	// calibrationEvery is the least campaign time between two host
	// calibrations (see calibrate.go).
	calibrationEvery = 250 * time.Millisecond
	// hotCopies is how many times a hot_fleet campaign submits each
	// golden point. The coordinator holds a journal file open for every
	// campaign it has created, so campaigns of 45 cache hits, over a
	// thousand per fleet, run it out of file descriptors where the limit
	// is 1024; larger campaigns keep the count near a hundred.
	hotCopies = 20
)

// system is the campaign engine under test, in-process or a fleet.
type system interface {
	campaign(ctx context.Context, order []int) (campaignRun, error)
	counters(ctx context.Context) (counters, error)
	// debugAddrs lists the pprof listeners of the system's server
	// processes; empty when the system runs in the benchmark process.
	debugAddrs() []string
	close()
}

// counters are monotonic totals a system reports; the benchmark takes
// their difference over the measured window.
type counters struct {
	cacheHits, cacheMisses uint64
	wireBytes              int64 // campaign stream bytes the client read
	journalBytes           int64 // campaign journal bytes on disk
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "inprocess | cold_fleet | hot_fleet")
		seed     = flag.Uint64("seed", 1, "seed of every campaign's submission order")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer CPU time from profiles instead of end-to-end metrics")
		sdserve  = flag.String("sdserve", "", "sdserve binary the fleet workloads run")
		runDir   = flag.String("run-dir", ".bench_build/run", "scratch directory for fleet journals and logs")
	)
	flag.Parse()
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// Every run must end well inside three minutes, whatever hangs.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+120*time.Second)
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, *workload, *seed, *seconds, *traceOn == 1, *sdserve, *runDir)
	stop()
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(ctx context.Context, workload string, seed uint64, seconds int, trace bool, sdserve, runDir string) (*result, error) {
	golden, err := loadGolden(filepath.Join("testdata", "golden_equivalence.ndjson"))
	if err != nil {
		return nil, err
	}
	var start func() (system, error)
	size := len(golden)
	switch workload {
	case "inprocess":
		start = func() (system, error) { return newInProcess(golden) }
	case "cold_fleet", "hot_fleet":
		if sdserve == "" {
			return nil, fmt.Errorf("workload %s needs -sdserve", workload)
		}
		dir := filepath.Join(runDir, fmt.Sprintf("%s-%d", workload, os.Getpid()))
		hot := workload == "hot_fleet"
		if hot {
			size *= hotCopies
		}
		start = func() (system, error) { return startFleet(ctx, sdserve, dir, golden, hot) }
	default:
		return nil, fmt.Errorf("unknown workload %q (want inprocess, cold_fleet or hot_fleet)", workload)
	}

	// The run is setupRounds segments. Each starts a fresh system, sets
	// it up and measures it for an equal share of the window: two starts
	// of the same processes differ by more than the host drifts within a
	// run, so spreading the window over several systems averages that
	// out.
	m := &measurement{res: &result{Correct: true, Metrics: make(map[string]metric)}, cal: calibrate()}
	order := func(rep uint64) []int { return submissionOrder(seed, rep, size, len(golden)) }
	share := time.Duration(seconds) * time.Second / setupRounds
	for round := uint64(0); round < setupRounds; round++ {
		if err := m.segment(ctx, start, order, round, share, trace); err != nil {
			return nil, err
		}
	}
	return m.report(trace), nil
}

// measurement accumulates the segments of a run.
type measurement struct {
	res *result
	cal time.Duration // the latest host calibration
	// setups holds set-up times in seconds, latencies per-point latencies
	// in milliseconds, both at reference speed; busy is campaign seconds
	// at reference speed. rawWalls (campaign wall times) and cals
	// (calibrations) are in raw milliseconds.
	setups, latencies, rawWalls, cals []float64
	busy                              float64
	// Trace mode only: what the system reported over the measured
	// windows, the layer profile, and the points delivered while the
	// profiles ran.
	counted        counters
	prof           layerProfile
	profiledPoints float64
}

// segment starts a system and sets it up — one full campaign warms it:
// workload generation, connection pools and, on the hot fleet, the
// result caches — then runs campaigns on it for d. Campaigns run in
// batches of at least calibrationEvery with the host calibrated between
// batches, and each campaign's times are scaled by the calibrations
// around its batch. order gives the submission order of campaign rep.
func (m *measurement) segment(ctx context.Context, start func() (system, error), order func(rep uint64) []int, round uint64, d time.Duration, trace bool) error {
	begin := time.Now()
	sys, err := start()
	if err != nil {
		return err
	}
	defer sys.close()
	warm, err := sys.campaign(ctx, order(math.MaxUint64-round))
	if err != nil {
		return fmt.Errorf("set-up campaign: %w", err)
	}
	took := time.Since(begin)
	next := calibrate()
	m.setups = append(m.setups, took.Seconds()*speedFactor(m.cal, next))
	m.cal = next
	if warm.failed > 0 {
		m.res.Correct = false
	}

	before, err := sys.counters(ctx)
	if err != nil {
		return err
	}
	profiled := max(time.Second, d.Truncate(time.Second))
	var finishProfile func() (layerProfile, error)
	if trace {
		if finishProfile, err = profileSystem(ctx, sys.debugAddrs(), int(profiled/time.Second)); err != nil {
			return err
		}
	}
	delivered := 0
	begin = time.Now()
	rep := round << 32
	for first := true; first || time.Since(begin) < d; first = false {
		var batch []campaignRun
		for batchStart := time.Now(); len(batch) == 0 || time.Since(batchStart) < calibrationEvery; rep++ {
			c, err := sys.campaign(ctx, order(rep))
			if err != nil {
				return err
			}
			batch = append(batch, c)
		}
		next := calibrate()
		factor := speedFactor(m.cal, next)
		m.cals = append(m.cals, next.Seconds()*1e3)
		m.cal = next
		for _, c := range batch {
			m.busy += c.wall.Seconds() * factor
			m.rawWalls = append(m.rawWalls, c.wall.Seconds()*1e3)
			m.res.Attempted += c.points
			m.res.Failed += c.failed
			delivered += c.points - c.failed
			for _, l := range c.latency {
				m.latencies = append(m.latencies, l.Seconds()*1e3*factor)
			}
		}
	}
	if !trace {
		return nil
	}
	elapsed := time.Since(begin)
	prof, err := finishProfile()
	if err != nil {
		return err
	}
	after, err := sys.counters(ctx)
	if err != nil {
		return err
	}
	m.prof.merge(prof)
	// The profiles cover the first whole seconds of the segment; its
	// campaigns ran slightly longer.
	m.profiledPoints += float64(delivered) * float64(profiled) / float64(elapsed)
	m.counted.cacheHits += after.cacheHits - before.cacheHits
	m.counted.cacheMisses += after.cacheMisses - before.cacheMisses
	m.counted.wireBytes += after.wireBytes - before.wireBytes
	m.counted.journalBytes += after.journalBytes - before.journalBytes
	return nil
}

// report turns the accumulated segments into the run's metrics: the
// end-to-end ones, or with trace the per-layer ones.
func (m *measurement) report(trace bool) *result {
	res := m.res
	if res.Failed > 0 {
		res.Correct = false
	}
	delivered := float64(res.Attempted - res.Failed)
	if !trace {
		res.Metrics["points_per_s"] = metric{delivered / m.busy, "1/s"}
		res.Metrics["point_p95_ms"] = metric{percentile(m.latencies, 0.95), "ms"}
		res.Metrics["setup_s"] = metric{percentile(m.setups, 0.5), "s"}
		return res
	}
	perPoint := func(nanos int64) float64 { return float64(nanos) / 1e6 / m.profiledPoints }
	var total int64
	for _, l := range layers {
		res.Metrics[l+"_cpu_ms_per_point"] = metric{perPoint(m.prof.nanos[l]), "ms"}
		total += m.prof.nanos[l]
	}
	res.Metrics["cpu_ms_per_point"] = metric{perPoint(total), "ms"}
	res.Metrics["cpu_samples"] = metric{float64(m.prof.samples), "count"}
	res.Metrics["raw_campaign_p50_ms"] = metric{percentile(m.rawWalls, 0.50), "ms"}
	res.Metrics["calibration_p50_ms"] = metric{percentile(m.cals, 0.50), "ms"}
	hits, misses := float64(m.counted.cacheHits), float64(m.counted.cacheMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	res.Metrics["cache_hit_ratio"] = metric{ratio, "ratio"}
	res.Metrics["wire_bytes_per_point"] = metric{float64(m.counted.wireBytes) / delivered, "B"}
	res.Metrics["journal_bytes_per_point"] = metric{float64(m.counted.journalBytes) / delivered, "B"}
	return res
}

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
