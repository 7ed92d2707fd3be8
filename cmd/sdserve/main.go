// Command sdserve exposes the sdpolicy campaign engine over HTTP — the
// serving layer for interactive exploration of scheduling scenarios
// without recompiling or re-running cmd/sdexp.
//
//	sdserve -addr :8080 -workers 8 -cache 512 -max-inflight 32
//
// Endpoints (JSON in/out, see internal/serve):
//
//	POST /v1/simulate  {"workload":"wl1","scale":0.1,"seed":1,
//	                    "options":{"policy":"sd","max_slowdown":10}}
//	POST /v1/campaigns {"points":[{"workload":"wl1","scale":0.1,
//	                    "options":{"policy":"sd"}}, ...]} — creates a
//	                   campaign resource (201 + Location) that runs
//	                   detached from the connection; "reports":true and
//	                   "trace":true add report and trace frames
//	GET  /v1/campaigns/{id}?from=<seq>  attach to the campaign's frame
//	                   stream (SSE or NDJSON), resumable from any seq
//	GET  /v1/campaigns/{id}/status      compact progress
//	DELETE /v1/campaigns/{id}           cancel
//	GET  /v1/workloads    list addressable workloads: generator presets
//	                   plus every trace registered via -trace-dir, with
//	                   the derivation-op schema
//	GET  /v1/workloads/{ref}  one workload's resolved metadata
//	GET  /v1/experiments  list the experiment registry (names, params)
//	POST /v1/experiments  {"experiment":"table1","params":{...}} —
//	                   creates a journaled campaign that streams the
//	                   named experiment's reduced rows (201 + Location)
//	GET  /v1/experiments/{id}?from=<seq>  attach to the experiment's
//	                   row stream (SSE or NDJSON); the terminal frame
//	                   carries the same summary the local Engine
//	                   helper returns, byte for byte
//	DELETE /v1/experiments/{id}         cancel
//	POST /v1/workers/register    worker announcement / heartbeat
//	POST /v1/workers/deregister  graceful worker departure
//	GET  /healthz
//
// With -journal-dir every campaign resource is write-ahead journaled:
// after a crash or restart the next holder of the directory's
// coordinator lease (this process, or an sdserve -standby sharing the
// directory) resumes in-flight campaigns without re-running journaled
// points, and clients reattach with ?from= for a byte-identical
// continuation of the stream they lost.
//
// All requests share one engine: identical in-flight requests coalesce
// into a single simulation, repeated points are served from the LRU
// result cache, and -max-inflight bounds concurrently simulating
// requests and campaigns. DELETE on a campaign cancels it
// mid-simulation and frees its slot. Memory holds every running
// campaign and a fixed number of finished ones; with -journal-dir an
// older finished campaign is re-read from its journal when asked for.
// SIGINT/SIGTERM end open streams with a shutdown frame, then drain
// in-flight requests before exit. -cache-dir persists the result cache
// across restarts, even kill -9: its logs are loaded on start, and each
// new result is appended the moment it exists. It must not be the
// -journal-dir.
//
// # Elastic coordinator fleets
//
// -peers http://w1:8080,http://w2:8080 (or -coordinator with no static
// peers at all) turns the instance into a campaign coordinator:
// campaigns are planned into -shards-per-worker deterministic shards
// per fleet member, each created as a /v1/campaigns resource (ID
// <campaign ID>.<suffix>) on a worker taken work-stealing style from
// the fleet, and re-merged byte-identically to a single-process run.
// The fleet is elastic three ways:
//
//   - A failed worker requeues its unresolved points and is
//     health-probed (/healthz, exponential backoff) back into rotation
//     — a worker restart is absorbed, not permanent.
//   - Workers announce themselves with -join http://coordinator:8080
//     (heartbeating a TTL'd lease, deregistering on shutdown), so the
//     fleet can grow and shrink without restarting the coordinator; a
//     worker joining mid-campaign steals queued shards immediately.
//   - With -cache-dir the coordinator negotiates per-job report frames
//     from its workers and appends every proxied result to its cache
//     log as it arrives, so the directory warms later local sdexp runs
//     (fig4-9 analyses too).
//
// /v1/simulate keeps running on the local engine; /healthz reports per-peer fleet state (alive|dead|probing,
// consecutive failures, last error, remaining lease).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
	"sdpolicy/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker-pool size")
		cache       = flag.Int("cache", 512, "result cache capacity in campaign points (0 disables)")
		inflight    = flag.Int("max-inflight", 32, "max concurrently simulating requests")
		grace       = flag.Duration("grace", 30*time.Second, "shutdown grace period")
		peers       = flag.String("peers", "", "comma-separated static worker sdserve base URLs; implies coordinator mode")
		coordinator = flag.Bool("coordinator", false, "enable coordinator mode even with no static -peers (fleet populated by -join registrations)")
		perWorker   = flag.Int("shards-per-worker", sdpolicy.DefaultShardsPerWorker, "coordinator: campaign shards planned per fleet member (work-stealing granularity)")
		probeEvery  = flag.Duration("probe-interval", time.Second, "coordinator: health-prober tick for returning dead workers to rotation")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "coordinator: default heartbeat lease granted to registering workers; worker: lease requested by -join")
		join        = flag.String("join", "", "comma-separated coordinator base URLs to register this worker with (heartbeats the lease against whichever answers, deregisters on shutdown); list the active coordinator and its standbys")
		advertise   = flag.String("advertise", "", "base URL this worker advertises when joining (default http://127.0.0.1:<port> from -addr)")
		cacheDir    = flag.String("cache-dir", "", "persist results in this directory across restarts: load its logs on start and append each result as it completes; on a coordinator, proxied worker results are appended too (must differ from -journal-dir)")
		journalDir  = flag.String("journal-dir", "", "write-ahead journal directory for /v1/campaigns resources; enables crash/failover recovery and the coordinator lease (share it between the active coordinator and its standbys)")
		journalTTL  = flag.Duration("journal-lease", 15*time.Second, "coordinator lease TTL inside -journal-dir; a standby adopts the journal after the lease goes this long without a refresh")
		standby     = flag.Bool("standby", false, "start as a failover standby: serve requests but keep the campaign plane inactive until the -journal-dir coordinator lease is acquired (requires -journal-dir)")
		traceDir    = flag.String("trace-dir", "", "register every *.swf file in this directory at startup; each becomes addressable as trace:<digest> on the workload endpoints")
		debugAddr   = flag.String("debug-addr", "", "optional listen address for net/http/pprof and /metrics (e.g. localhost:6060); off when empty")
	)
	flag.Parse()
	if *standby && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "sdserve: -standby requires -journal-dir (the lease and journal to adopt live there)")
		os.Exit(1)
	}
	if *cacheDir != "" && *journalDir != "" && sameDir(*cacheDir, *journalDir) {
		// Recovery would adopt the cache logs as campaigns and append
		// done records into them.
		fmt.Fprintln(os.Stderr, "sdserve: -cache-dir and -journal-dir must name different directories")
		os.Exit(1)
	}
	if *traceDir != "" {
		infos, err := sdpolicy.RegisterTraceDir(*traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdserve:", err)
			os.Exit(1)
		}
		for _, info := range infos {
			fmt.Fprintf(os.Stderr, "sdserve: registered trace %s as %s (%d jobs, %d nodes, %d cores)\n",
				info.Source, info.Ref, info.Jobs, info.Nodes, info.Cores)
		}
	}

	engine := sdpolicy.NewEngine(*workers, *cache)
	var closeCache func() (int, error)
	if *cacheDir != "" && *cache <= 0 {
		fmt.Fprintln(os.Stderr, "sdserve: ignoring -cache-dir: in-memory cache disabled (-cache 0)")
	} else if *cacheDir != "" {
		stats, closeFn, err := engine.PersistCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdserve: -cache-dir:", err)
			os.Exit(1)
		}
		closeCache = closeFn
		for _, w := range append(stats.Skipped, stats.Conflicts...) {
			fmt.Fprintln(os.Stderr, "sdserve:", w)
		}
		if stats.Overflow > 0 {
			fmt.Fprintf(os.Stderr, "sdserve: %d of the %d results in %s do not fit -cache %d and were not loaded; raise -cache\n",
				stats.Overflow, stats.Entries, *cacheDir, *cache)
		}
		fmt.Fprintf(os.Stderr, "sdserve: loaded %d cached results from %d logs in %s\n",
			stats.Entries-stats.Overflow, stats.Files, *cacheDir)
	}
	api := serve.New(engine, *inflight)
	var jnl *journal.Journal
	if *journalDir != "" {
		var err error
		if jnl, err = journal.Open(*journalDir); err != nil {
			fmt.Fprintln(os.Stderr, "sdserve:", err)
			os.Exit(1)
		}
		// Demotes the campaign plane to standby until the coordinator
		// lease below is acquired; must precede serving requests.
		api.EnableJournal(jnl)
		role := "active candidate"
		if *standby {
			role = "standby"
		}
		fmt.Fprintf(os.Stderr, "sdserve: journaling campaigns in %s (%s; lease TTL %v)\n",
			*journalDir, role, *journalTTL)
	}
	if *peers != "" || *coordinator {
		var urls []string
		if *peers != "" {
			urls = strings.Split(*peers, ",")
		}
		cfg := serve.CoordinatorConfig{
			Workers:         urls,
			ShardsPerWorker: *perWorker,
			ProbeInterval:   *probeEvery,
			LeaseTTL:        *leaseTTL,
			WarmCache:       closeCache != nil,
		}
		if err := api.EnableCoordinator(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "sdserve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sdserve: coordinating campaigns (%d static workers, %d shards/worker, registration open)\n",
			len(urls), *perWorker)
	}
	var self string
	var joinBases []string
	if *join != "" {
		var err error
		if self, err = advertiseURL(*advertise, *addr); err != nil {
			fmt.Fprintln(os.Stderr, "sdserve:", err)
			os.Exit(1)
		}
		for _, base := range strings.Split(*join, ",") {
			base = strings.TrimSpace(base)
			if base == "" {
				continue
			}
			// Joining yourself would register the coordinator into its own
			// fleet: campaigns would fan out to this instance, re-enter
			// coordinator mode, and recurse until the in-flight slots 503.
			if strings.TrimRight(base, "/") == self {
				fmt.Fprintf(os.Stderr, "sdserve: -join %s is this instance's own URL; a server cannot join itself\n", self)
				os.Exit(1)
			}
			joinBases = append(joinBases, base)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: serve.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "sdserve: debug listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "sdserve: debug listener on %s (/debug/pprof/, /metrics)\n", *debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	build := serve.BuildInfo()
	fmt.Fprintf(os.Stderr, "sdserve: version %s (%s, built %s) listening on %s (%d workers, cache %d, max in-flight %d)\n",
		build.Version, build.Go, buildTimeOrUnknown(build), *addr, *workers, *cache, *inflight)

	joinDone := make(chan struct{})
	if len(joinBases) > 0 {
		go func() {
			defer close(joinDone)
			serve.JoinLoop(ctx, nil, joinBases, self, *leaseTTL, func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "sdserve: "+format+"\n", args...)
			})
		}()
	} else {
		close(joinDone)
	}

	// With a journal, the campaign plane opens only once this process
	// holds the directory's coordinator lease: an active coordinator gets
	// it immediately, a -standby blocks here until the active's lease
	// expires (crash) or is released (graceful exit), then adopts the
	// journal and persisted peer table and resumes in-flight campaigns.
	leasec := make(chan *journal.Lease, 1)
	if jnl != nil {
		go func() {
			acquire := jnl.AcquireLease
			if *standby {
				// A standby never creates the lease from nothing: it waits
				// for the active's lease to appear, then takes over when it
				// goes stale or is released. Otherwise a standby that boots
				// faster than its active would win the initial election.
				acquire = jnl.AwaitLease
			}
			lease, err := acquire(ctx, *journalTTL)
			if err != nil {
				if ctx.Err() == nil {
					fmt.Fprintln(os.Stderr, "sdserve: acquiring coordinator lease:", err)
				}
				return
			}
			leasec <- lease
			stats := api.Activate()
			fmt.Fprintf(os.Stderr, "sdserve: journal: lease acquired; adopted %d peers, resumed %d campaigns (%d journaled results skipped), %d completed campaigns attachable\n",
				stats.AdoptedPeers, stats.Resumed, stats.SkippedPoints, stats.Completed)
		}()
	}

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "sdserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "sdserve: shutting down, draining in-flight requests")
	// End open campaign streams with a shutdown frame first, so Shutdown
	// below drains instead of holding them open (or cutting them) for the
	// whole grace period. BeginShutdown also stops the coordinator's
	// health prober.
	api.BeginShutdown()
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	// The join loop deregisters from its coordinator once ctx is done;
	// wait so the lease is released before exit.
	<-joinDone
	// Release the coordinator lease (if this instance ever acquired it)
	// so a standby takes over immediately instead of waiting out the TTL.
	select {
	case lease := <-leasec:
		lease.Release()
		fmt.Fprintln(os.Stderr, "sdserve: journal: coordinator lease released")
	default:
	}
	if closeCache != nil {
		appended, cerr := closeCache()
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "sdserve: result cache:", cerr)
		}
		fmt.Fprintf(os.Stderr, "sdserve: appended %d results to %s\n", appended, *cacheDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdserve: shutdown:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sdserve:", err)
		os.Exit(1)
	}
}

// sameDir reports whether a and b name one directory.
func sameDir(a, b string) bool {
	fa, errA := os.Stat(a)
	fb, errB := os.Stat(b)
	if errA == nil && errB == nil {
		return os.SameFile(fa, fb)
	}
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	return errA == nil && errB == nil && absA == absB
}

// buildTimeOrUnknown renders the build's VCS time for the startup log.
func buildTimeOrUnknown(b serve.Build) string {
	if b.Built == "" {
		return "unknown"
	}
	return b.Built
}

// advertiseURL resolves the base URL this worker announces on -join:
// the explicit -advertise value, or one derived from -addr with a
// loopback host when the listen address does not name one (":8080" is
// reachable by the worker's own loopback, which covers the
// single-machine fleets -join is typically smoke-tested with; real
// deployments pass -advertise).
func advertiseURL(advertise, addr string) (string, error) {
	if advertise != "" {
		return strings.TrimRight(advertise, "/"), nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: %w", addr, err)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}
