// Command sdexp regenerates every table and figure of the paper's
// evaluation section:
//
//	table1  workload inventory + static baseline aggregates
//	table2  real-run application mix
//	fig1-3  makespan / response / slowdown vs MAX_SLOWDOWN, WL1-4
//	fig4-6  category heatmaps static/SD on the Curie-like workload
//	fig7    per-day slowdown series + malleable starts
//	fig8    ideal vs worst-case runtime model
//	fig9    real-run emulation (application model + energy)
//	ablations  design-choice sweeps (sharing factor, max mates,
//	           malleable fraction, free-node mixing, node features)
//
// The default -scale 0.1 keeps the full suite in the minutes range;
// -scale 1 reproduces the paper's full workload sizes (wl4 alone then
// simulates 198509 jobs and takes correspondingly long).
//
// -experiment name runs one experiment of the shared registry (the
// same registry sdserve exposes as /v1/experiments; -experiment list
// prints it) and renders its result without the -exp banner and timing
// lines, so two runs of the same experiment are byte-comparable.
// Combined with -server url1,url2 the experiment is created as a
// /v1/experiments resource on a remote sdserve deployment — the server
// simulates (fanning out to its worker fleet if it is a coordinator)
// and streams back reduced rows plus a summary, and the rendered output
// is byte-identical to the local run.
//
// -points file.json bypasses the experiment index and streams an
// arbitrary campaign — a JSON array of {workload, scale, seed,
// malleable_fraction, derivations, options} points, the same wire
// format as a sdserve /v1/campaigns create body — as NDJSON on stdout,
// one line per point in input order, emitted incrementally as points
// complete. -progress adds point-level progress on stderr; Ctrl-C
// aborts the campaign mid-simulation.
//
// -trace file1.swf,file2.swf registers SWF traces before the run; each
// compiles to an immutable workload addressable as trace:<digest>
// anywhere a generator name is accepted (the workload field of points
// files, the real_trace experiment's trace parameter). The digest is printed
// on stderr at registration. For -server runs the remote deployment
// must hold the same traces (sdserve -trace-dir).
//
// -cache-dir dir persists campaign results across runs: the engine
// loads every cache log in dir on start and appends each result to a
// log of its own the moment the point completes, so a rerun — even
// after Ctrl-C or kill -9 — only simulates the points that did not
// finish. Each process writes its own log, so concurrent runs (a job
// array) may share one directory.
//
// Distributed runs compose two flags on top of -points:
//
//   - -shard i/n (1-based) runs only the i-th of n deterministic
//     shards of the campaign — clusterless fan-out via a job array.
//     Output lines keep their original campaign indices, and shard
//     assignment co-locates canonical duplicates, so n shard runs
//     merged by index are byte-identical to one full run. The reduce
//     step for their caches is a copy: the *.journal logs of every
//     shard's -cache-dir, copied into one directory, warm a full
//     replay (or let the shards share one -cache-dir).
//   - -server URL sends the campaign to a running sdserve instance
//     (worker or coordinator) as a /v1/campaigns resource instead of
//     simulating in-process, with the same input-ordered,
//     byte-identical NDJSON output. Combined with -cache-dir, the
//     campaign is created with per-job report frames and every proxied
//     result — report included — is appended to the local cache
//     directory, warming later in-process runs.
//
// Two profiling surfaces coexist, one offline and one live:
//
//   - -cpuprofile file / -memprofile file follow the go test
//     convention: the CPU profile spans the whole run, the memory
//     profile snapshots allocations after a final GC on exit. Inspect
//     with `go tool pprof file`.
//   - -debug-addr host:port serves /debug/pprof/ and /metrics over
//     HTTP for profiling a run in flight (30-second CPU slices,
//     goroutine dumps) without restarting it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sdpolicy"
	"sdpolicy/internal/serve"
	"sdpolicy/internal/telemetry"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: all | table1 | table2 | fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | ablations | none (run nothing, e.g. only register -trace files)")
		experiment = flag.String("experiment", "", "run one registry experiment by name (list = print the registry); with -server the experiment runs remotely via /v1/experiments with byte-identical output")
		scale      = flag.Float64("scale", 0.1, "workload scale factor (0,1]")
		seed       = flag.Uint64("seed", 1, "generator seed")
		outDir     = flag.String("out", "", "also write each experiment's output under this directory")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "campaign worker-pool size (1 = sequential)")
		cache      = flag.Int("cache", 512, "campaign result-cache capacity in points (0 disables)")
		progress   = flag.Bool("progress", false, "report campaign progress on stderr")
		points     = flag.String("points", "", "JSON file holding an array of campaign points; streams NDJSON results to stdout instead of running -exp")
		cacheDir   = flag.String("cache-dir", "", "persist campaign results in this directory: load its logs on start and append each result as it completes; with -server, proxied results are appended too")
		shard      = flag.String("shard", "", "with -points: run only shard i/n (1-based, e.g. 2/3) of the campaign; lines keep their original indices")
		server     = flag.String("server", "", "with -points: comma-separated base URLs of an sdserve deployment (coordinator plus failover standbys) that runs the campaign instead of this process; the stream resumes across disconnects and failovers")
		trace      = flag.String("trace", "", "comma-separated SWF trace files to register before the run; each becomes addressable as trace:<digest> in points files and -experiment parameters")
		debugAddr  = flag.String("debug-addr", "", "optional listen address for net/http/pprof and /metrics (e.g. localhost:6060); off when empty")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go test convention; -debug-addr serves the same data live)")
		memprofile = flag.String("memprofile", "", "write an allocs/heap profile to this file on exit, after a final GC (go test convention)")
	)
	flag.Parse()
	if *points == "" && *shard != "" {
		fmt.Fprintln(os.Stderr, "sdexp: -shard requires -points")
		os.Exit(1)
	}
	if *server != "" && *points == "" && *experiment == "" {
		fmt.Fprintln(os.Stderr, "sdexp: -server requires -points or -experiment")
		os.Exit(1)
	}
	for _, p := range strings.Split(*trace, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		info, err := sdpolicy.RegisterTraceFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sdexp: registered trace %s as %s (%d jobs, %d nodes, %d cores)\n",
			p, info.Ref, info.Jobs, info.Nodes, info.Cores)
	}
	stopProfiles, perr := startProfiles(*cpuprofile, *memprofile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "sdexp:", perr)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: serve.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "sdexp: debug listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "sdexp: debug listener on %s (/debug/pprof/, /metrics)\n", *debugAddr)
	}

	engine := sdpolicy.NewEngine(*workers, *cache)
	if *progress {
		engine.OnProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsdexp: %d/%d points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}
	var closeCache func() (int, error)
	var err error
	if *cacheDir != "" && *cache <= 0 {
		// With the in-memory cache disabled there is nothing to load
		// into, and without it a remote run's proxied results have
		// nowhere to be primed.
		fmt.Fprintln(os.Stderr, "sdexp: ignoring -cache-dir: in-memory cache disabled (-cache 0)")
	} else if *cacheDir != "" {
		// A remote run loads the directory too: the local cache is never
		// consulted, but the loaded keys keep a repeated remote run from
		// appending results the directory already holds.
		var stats sdpolicy.CacheMergeStats
		if stats, closeCache, err = engine.PersistCache(*cacheDir); err != nil {
			err = fmt.Errorf("-cache-dir: %w", err)
		}
		for _, w := range append(stats.Skipped, stats.Conflicts...) {
			fmt.Fprintln(os.Stderr, "sdexp:", w)
		}
		if stats.Overflow > 0 {
			fmt.Fprintf(os.Stderr, "sdexp: %d of the %d results in %s do not fit -cache %d and were not loaded; raise -cache\n",
				stats.Overflow, stats.Entries, *cacheDir, *cache)
		}
	}
	runner := &runner{ctx: ctx, engine: engine, scale: *scale, seed: *seed, outDir: *outDir}
	switch {
	case err != nil:
	case *points != "":
		err = runner.runPoints(*points, *shard, *server, closeCache != nil)
	case *experiment != "":
		err = runner.runExperiment(*experiment, *server)
	case *exp == "none":
		// Nothing to run: -trace registration (and its digest line) only.
	default:
		err = runner.run(*exp)
	}
	if closeCache != nil {
		// Every completed point was appended as it finished, so even
		// after a mid-campaign error or Ctrl-C the next run is warm.
		appended, cerr := closeCache()
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "sdexp: result cache:", cerr)
		}
		hits, misses := engine.CacheStats()
		fmt.Fprintf(os.Stderr, "sdexp: cache: %d hits, %d misses this run; appended %d entries\n",
			hits, misses, appended)
	}
	if *progress {
		emitCacheStatsJSON(os.Stderr)
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdexp:", err)
		os.Exit(1)
	}
}

// startProfiles wires the go-test-style profiling flags: the CPU
// profile covers everything from flag parsing to exit, and the memory
// profile snapshots allocations after a final GC so live objects
// dominate the picture. The returned stop function is safe to call when
// neither flag is set.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sdexp: -cpuprofile:", err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sdexp: -memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "sdexp: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sdexp: -memprofile:", err)
			}
		}
	}, nil
}

// emitCacheStatsJSON is the machine-readable counterpart of the human
// cache line above: one JSON object on its own stderr line, sourced
// from the process-wide telemetry counters (the same tallies /metrics
// exposes) rather than a parallel ad-hoc count.
func emitCacheStatsJSON(w io.Writer) {
	hits, _ := telemetry.Default.Value("campaign_cache_hits_total")
	misses, _ := telemetry.Default.Value("campaign_cache_misses_total")
	fmt.Fprintf(w, "{\"cache_hits\":%d,\"cache_misses\":%d}\n", uint64(hits), uint64(misses))
}

// runPoints streams an arbitrary campaign — the points a sdserve
// /v1/campaigns create body carries — writing one NDJSON line per
// point to stdout. Results are printed in input order but emitted
// incrementally: each line appears as soon as its point and every
// earlier one has completed, so the output is byte-identical across
// worker counts (the CI determinism gate diffs two runs) while a
// consumer still sees the sweep grow point by point.
//
// With shardSpec ("i/n"), only the i-th deterministic shard of the
// campaign runs; each line keeps its original campaign index, so the n
// shard outputs interleave by index into exactly the full run's bytes.
// With serverURL, the campaign executes on a remote sdserve instance
// (worker or coordinator) and the stream is re-ordered locally — same
// bytes, remote cycles. With warm, the remote campaign additionally
// carries per-job report frames and primes the local engine cache
// with every proxied result, which -cache-dir appends to its log so
// later local runs are warm.
func (r *runner) runPoints(path, shardSpec, serverURL string, warm bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var specs []sdpolicy.PointSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	// Reject trailing data (a second concatenated array, say) rather
	// than silently running a subset of the file.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%s: trailing data after the points array", path)
	}
	if len(specs) == 0 {
		return fmt.Errorf("%s: no points", path)
	}
	points, err := sdpolicy.PointsFromSpecs(specs)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	// positions maps the indices of the points actually run back to
	// their original campaign positions (the identity unless sharded).
	positions := make([]int, len(points))
	for i := range positions {
		positions[i] = i
	}
	if shardSpec != "" {
		index, of, err := parseShard(shardSpec)
		if err != nil {
			return err
		}
		shards, err := sdpolicy.PlanShards(points, of)
		if err != nil {
			return err
		}
		s := shards[index-1]
		positions, points = s.Positions, s.Points
		if len(points) == 0 {
			fmt.Fprintf(os.Stderr, "sdexp: shard %s is empty (fewer unique points than shards)\n", shardSpec)
			return nil
		}
	}
	updates := make(chan sdpolicy.PointResult, len(points))
	errc := make(chan error, 1)
	if serverURL != "" {
		go func() { errc <- streamFromServer(r.ctx, serverURL, r.engine, points, warm, updates) }()
	} else {
		go func() {
			_, err := r.engine.RunStream(r.ctx, points, updates)
			errc <- err
		}()
	}
	enc := json.NewEncoder(os.Stdout)
	pending := make(map[int]sdpolicy.PointResult)
	next := 0
	for u := range updates {
		pending[u.Index] = u
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			v.Index = positions[next]
			if err := enc.Encode(v); err != nil {
				return err
			}
			delete(pending, next)
			next++
		}
	}
	return <-errc
}

// parseShard parses "i/n" with 1 <= i <= n.
func parseShard(spec string) (index, of int, err error) {
	a, b, ok := strings.Cut(spec, "/")
	if ok {
		index, err = strconv.Atoi(a)
		if err == nil {
			of, err = strconv.Atoi(b)
		}
	}
	if !ok || err != nil || of < 1 || index < 1 || index > of {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/n with 1 <= i <= n (shards are 1-based)", spec)
	}
	return index, of, nil
}

// streamFromServer runs the campaign as a durable /v1/campaigns
// resource on a remote sdserve deployment — serverList is one or more
// comma-separated equivalent bases (the coordinator and its failover
// standbys) — and forwards its stream onto updates, with the same
// contract as Engine.RunStream: results arrive in completion order,
// updates closes before returning, and the first error aborts. The
// durable client reattaches with its ?from= cursor on mid-stream
// disconnects, server restarts and coordinator failovers, so those are
// invisible here beyond latency. With warm, per-job report frames are
// negotiated and every proxied result is primed — report attached —
// into engine's cache, which appends it to the -cache-dir log.
func streamFromServer(ctx context.Context, serverList string, engine *sdpolicy.Engine, points []sdpolicy.Point, warm bool, updates chan<- sdpolicy.PointResult) error {
	defer close(updates)
	var bases []string
	for _, b := range strings.Split(serverList, ",") {
		if b = strings.TrimSpace(b); b != "" {
			bases = append(bases, b)
		}
	}
	var got map[int]*sdpolicy.Result
	if warm {
		got = make(map[int]*sdpolicy.Result, len(points))
	}
	return serve.RunDurableCampaign(ctx, nil, bases, points, warm, func(index int, res *sdpolicy.Result, report json.RawMessage) error {
		if res == nil {
			// Report frame for an already-delivered result: warm the
			// local cache with it. Best-effort — a server that never
			// sends frames just leaves the cache cold.
			if prev := got[index]; prev != nil {
				engine.PrimeProxied(points[index], prev, report)
				// One frame per result: release the reference so a huge
				// campaign does not hold every Result until the end.
				delete(got, index)
			}
			return nil
		}
		if warm {
			got[index] = res
		}
		// Echo our own point value, not the server's parse of it, so
		// output bytes match a local run exactly.
		select {
		case updates <- sdpolicy.PointResult{Index: index, Point: points[index], Result: res}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
}

type runner struct {
	ctx    context.Context
	engine *sdpolicy.Engine
	scale  float64
	seed   uint64
	outDir string
}

func (r *runner) run(exp string) error {
	type experiment struct {
		name string
		fn   func(io.Writer) error
	}
	all := []experiment{
		{"table1", r.table1},
		{"table2", r.table2},
		{"fig1-3", r.figs123},
		{"fig4-6", r.figs456},
		{"fig7", r.fig7},
		{"fig8", r.fig8},
		{"fig9", r.fig9},
		{"ablations", r.ablations},
	}
	selected := map[string][]experiment{
		"all":       all,
		"table1":    {all[0]},
		"table2":    {all[1]},
		"fig1":      {all[2]},
		"fig2":      {all[2]},
		"fig3":      {all[2]},
		"fig4":      {all[3]},
		"fig5":      {all[3]},
		"fig6":      {all[3]},
		"fig7":      {all[4]},
		"fig8":      {all[5]},
		"fig9":      {all[6]},
		"ablations": {all[7]},
	}[exp]
	if selected == nil {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	for _, e := range selected {
		start := time.Now()
		var sink io.Writer = os.Stdout
		var file *os.File
		if r.outDir != "" {
			if err := os.MkdirAll(r.outDir, 0o755); err != nil {
				return err
			}
			var err error
			file, err = os.Create(filepath.Join(r.outDir, e.name+".txt"))
			if err != nil {
				return err
			}
			sink = io.MultiWriter(os.Stdout, file)
		}
		fmt.Fprintf(sink, "==== %s (scale %.2f, seed %d) ====\n", e.name, r.scale, r.seed)
		if err := e.fn(sink); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(sink, "[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		if file != nil {
			file.Close()
		}
	}
	return nil
}

func (r *runner) table1(w io.Writer) error {
	rows, err := r.engine.Table1(r.ctx, r.scale, r.seed)
	if err != nil {
		return err
	}
	renderTable1(w, rows)
	return nil
}

func (r *runner) table2(w io.Writer) error {
	rows, err := r.engine.Table2(r.ctx, r.scale, r.seed)
	if err != nil {
		return err
	}
	renderTable2(w, rows)
	return nil
}

func (r *runner) figs123(w io.Writer) error {
	rows, err := r.engine.SweepMaxSD(r.ctx, []string{"wl1", "wl2", "wl3", "wl4"}, r.scale, r.seed)
	if err != nil {
		return err
	}
	renderSweep(w, rows)
	return nil
}

func (r *runner) figs456(w io.Writer) error {
	an, err := r.engine.AnalyzeBigWorkload(r.ctx, r.scale, r.seed)
	if err != nil {
		return err
	}
	renderBigHeatmaps(w, an)
	return nil
}

func (r *runner) fig7(w io.Writer) error {
	an, err := r.engine.AnalyzeBigWorkload(r.ctx, r.scale, r.seed)
	if err != nil {
		return err
	}
	renderBigDaily(w, an)
	return nil
}

func (r *runner) fig8(w io.Writer) error {
	rows, err := r.engine.CompareRuntimeModels(r.ctx, []string{"wl1", "wl2", "wl3", "wl4"}, r.scale, r.seed)
	if err != nil {
		return err
	}
	renderModels(w, rows)
	return nil
}

func (r *runner) fig9(w io.Writer) error {
	rep, err := r.engine.RealRunExperiment(r.ctx, r.scale, r.seed)
	if err != nil {
		return err
	}
	renderRealRun(w, rep)
	return nil
}

func (r *runner) ablations(w io.Writer) error {
	var all []sdpolicy.AblationRow
	sf, err := r.engine.AblateSharingFactor(r.ctx, "wl1", r.scale, r.seed, []float64{0.25, 0.5, 0.75})
	if err != nil {
		return err
	}
	all = append(all, sf...)
	mm, err := r.engine.AblateMaxMates(r.ctx, "wl1", r.scale, r.seed, []int{1, 2, 3, 4})
	if err != nil {
		return err
	}
	all = append(all, mm...)
	mf, err := r.engine.AblateMalleableFraction(r.ctx, "wl1", r.scale, r.seed, []float64{0, 0.25, 0.5, 0.75, 1})
	if err != nil {
		return err
	}
	all = append(all, mf...)
	fn, err := r.engine.AblateFreeNodeMixing(r.ctx, "wl1", r.scale, r.seed)
	if err != nil {
		return err
	}
	all = append(all, fn...)
	nf, err := r.engine.AblateNodeFeatures(r.ctx, "wl1", r.scale, r.seed, []float64{0, 0.25, 0.5})
	if err != nil {
		return err
	}
	all = append(all, nf...)
	pc, err := r.engine.ComparePolicies(r.ctx, "wl1", r.scale, r.seed)
	if err != nil {
		return err
	}
	all = append(all, pc...)
	fmt.Fprintln(w, "wl1, normalised to static backfill (lower is better)")
	renderAblationTable(w, all)
	return nil
}
