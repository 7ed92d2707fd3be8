package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// fleet is a coordinator and simWorkers workers, each a separate
// sdserve process on a loopback port and each worker simulating on one
// goroutine, driven over the /v1/campaigns resource API exactly as a
// remote client would drive it.
type fleet struct {
	golden  []goldenPoint
	dir     string
	coord   string
	workers []string
	debug   []string
	procs   []*proc
	client  *http.Client
	wire    atomic.Int64 // stream bytes read by the client
}

// startFleet launches the workers, then the journaled coordinator, and
// returns once the coordinator holds its lease and sees every worker
// alive. hot gives the workers a result cache that holds the whole
// campaign; otherwise their caches are off and every point simulates.
func startFleet(ctx context.Context, bin, dir string, golden []goldenPoint, hot bool) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{
		golden: golden,
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{}},
	}
	cache := "0"
	if hot {
		cache = strconv.Itoa(4 * len(golden))
	}
	// Two ports (API and pprof) for every process, all distinct.
	addrs, err := freeAddrs(2 * (simWorkers + 1))
	if err != nil {
		return nil, err
	}
	for i := 0; i < simWorkers; i++ {
		base, err := f.spawn(bin, addrs[2*i:2*i+2], fmt.Sprintf("worker%d", i), "-workers", "1", "-cache", cache)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, base)
	}
	for i, base := range f.workers {
		if err := f.waitReady(ctx, f.procs[i], base, nil); err != nil {
			f.close()
			return nil, err
		}
	}
	coord, err := f.spawn(bin, addrs[2*simWorkers:], "coordinator",
		"-workers", "1", "-cache", "0",
		"-peers", strings.Join(f.workers, ","),
		"-journal-dir", filepath.Join(dir, "journal"))
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	ready := func(h health) bool {
		if h.Role != "active" || len(h.Peers) != simWorkers {
			return false
		}
		for _, p := range h.Peers {
			if p.State != "alive" {
				return false
			}
		}
		return true
	}
	if err := f.waitReady(ctx, f.procs[len(f.procs)-1], coord, ready); err != nil {
		f.close()
		return nil, err
	}
	if hot {
		if err := f.warmWorkers(ctx); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// warmWorkers runs the whole campaign directly on every worker at
// once. The coordinator hands shards to whichever worker is free, so
// only a worker that has simulated every point serves each one from
// its cache.
func (f *fleet) warmWorkers(ctx context.Context) error {
	order := make([]int, len(f.golden))
	for i := range order {
		order[i] = i
	}
	errs := make([]error, len(f.workers))
	var wg sync.WaitGroup
	for i, base := range f.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Wrong results are not an error here: the measured campaigns
			// deliver the cached ones again and count them failed.
			if _, err := f.campaignOn(ctx, base, order); err != nil {
				errs[i] = fmt.Errorf("warming worker %s: %w", base, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// proc is one sdserve child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

// spawn starts one sdserve with its API on ports[0] and its pprof
// listener on ports[1] and returns its base URL.
func (f *fleet) spawn(bin string, ports []string, name string, args ...string) (string, error) {
	addr, dbg := ports[0], ports[1]
	logPath := filepath.Join(f.dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return "", err
	}
	defer logf.Close()
	args = append([]string{"-addr", addr, "-debug-addr", dbg, "-grace", "5s"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The fleet must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through logTail
		close(p.done)
	}()
	f.procs = append(f.procs, p)
	f.debug = append(f.debug, dbg)
	return "http://" + addr, nil
}

// freeAddrs picks n distinct loopback ports nothing listens on right
// now. It holds every port until it has them all, so the kernel cannot
// hand out one port twice.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// health is the part of sdserve's /healthz reply the benchmark reads.
type health struct {
	Role        string `json:"role"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Peers       []struct {
		State string `json:"state"`
	} `json:"peers"`
}

func (f *fleet) health(ctx context.Context, base string) (health, error) {
	var h health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("%s/healthz: status %d", base, resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// waitReady polls base's /healthz until it answers and ready (when
// non-nil) accepts the reply, failing early if the process exits.
func (f *fleet) waitReady(ctx context.Context, p *proc, base string, ready func(health) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := f.health(ctx, base)
		if err == nil && (ready == nil || ready(h)) {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, logTail(p.log))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s (last error %v):\n%s", p.name, err, logTail(p.log))
		}
	}
}

// logTail returns the end of a child's log, for error reports.
func logTail(path string) string {
	data, _ := os.ReadFile(path) // best effort: the log only annotates an error
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}

// streamFrame is the part of a /v1/campaigns/{id} NDJSON frame the
// client reads: a result for a submission position, or a terminal event.
type streamFrame struct {
	Index     *int            `json:"index"`
	Result    json.RawMessage `json:"result"`
	Done      bool            `json:"done"`
	Cancelled bool            `json:"cancelled"`
	Shutdown  bool            `json:"shutdown"`
	Error     json.RawMessage `json:"error"`
}

// campaign runs the points, in the given order, as a campaign on the
// coordinator.
func (f *fleet) campaign(ctx context.Context, order []int) (campaignRun, error) {
	return f.campaignOn(ctx, f.coord, order)
}

// campaignOn creates the campaign resource on the server at base,
// attaches to its stream from the first frame and reads it to the
// terminal frame.
func (f *fleet) campaignOn(ctx context.Context, base string, order []int) (campaignRun, error) {
	var body bytes.Buffer
	body.WriteString(`{"points":[`)
	for i, gi := range order {
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(f.golden[gi].point)
	}
	body.WriteString(`]}`)

	t := newTally(f.golden, order)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", &body)
	if err != nil {
		return t.finish(), err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return t.finish(), fmt.Errorf("creating campaign: %w", err)
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil || created.ID == "" {
		return t.finish(), fmt.Errorf("creating campaign: status %d (%v)", resp.StatusCode, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+created.ID+"?from=0", nil)
	if err != nil {
		return t.finish(), err
	}
	resp, err = f.client.Do(req)
	if err != nil {
		return t.finish(), fmt.Errorf("attaching to campaign %s: %w", created.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t.finish(), fmt.Errorf("attaching to campaign %s: status %d", created.ID, resp.StatusCode)
	}
	cr := &countingReader{r: resp.Body}
	defer func() { f.wire.Add(cr.n) }()
	dec := json.NewDecoder(cr)
	for {
		var fr streamFrame
		if err := dec.Decode(&fr); err != nil {
			return t.finish(), fmt.Errorf("campaign %s: stream ended early: %w", created.ID, err)
		}
		switch {
		case fr.Index != nil:
			t.deliver(*fr.Index, fr.Result)
		case fr.Done:
			return t.finish(), nil
		case fr.Cancelled, fr.Shutdown, len(fr.Error) > 0:
			return t.finish(), fmt.Errorf("campaign %s ended abnormally", created.ID)
		}
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// counters sums the workers' cache statistics and measures the
// coordinator's journal on disk.
func (f *fleet) counters(ctx context.Context) (counters, error) {
	c := counters{wireBytes: f.wire.Load()}
	for _, w := range f.workers {
		h, err := f.health(ctx, w)
		if err != nil {
			return c, err
		}
		c.cacheHits += h.CacheHits
		c.cacheMisses += h.CacheMisses
	}
	err := filepath.WalkDir(filepath.Join(f.dir, "journal"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			c.journalBytes += info.Size()
		}
		return err
	})
	return c, err
}

func (f *fleet) debugAddrs() []string { return f.debug }

// close stops every process — the coordinator first, so it never sees
// its workers vanish mid-campaign — waits for each to exit and removes
// the fleet's directory.
func (f *fleet) close() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		p := f.procs[i]
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	f.procs = nil
	f.client.CloseIdleConnections()
	if err := os.RemoveAll(f.dir); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "perfbench: removing fleet directory:", err)
	}
}
