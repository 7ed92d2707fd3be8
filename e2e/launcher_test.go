//go:build linux

// Package e2e drives the sdserve fleet as real processes. TestMain
// builds cmd/sdserve and cmd/sdexp once, and every test opens the
// module's sources (openSources) so that go test reruns the package
// when they change. Each TestFleet subtest starts its own loopback
// fleet, injects its fault once the state it waits for is observable,
// and byte-diffs the client output against a single-process run. Every
// child dies with the test: cleanup stops it, and Pdeathsig kills it
// if the test binary is cut off first.
package e2e

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
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"sdpolicy/internal/journal"
)

// binDir holds the sdserve and sdexp binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sdpolicy-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	binDir = dir
	code := 1
	build := exec.Command("go", "build", "-buildvcs=false", "-o", dir+"/", "sdpolicy/cmd/sdserve", "sdpolicy/cmd/sdexp")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building the binaries: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// openSources opens every Go source file and the go.mod of the module.
// go test caches a package's result keyed by the files its tests open,
// and TestMain builds the binaries in a child process the cache does
// not see, so without this walk an edit to the program would leave the
// byte-diffs "(cached)". testing records opens only once m.Run has
// started, which is why the tests call it and TestMain does not.
func openSources(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatalf("opening the module's sources: %v", err)
	}
}

// env is one scenario's sandbox: a directory for its files and child
// logs, and a deadline that bounds every wait, request and child.
type env struct {
	t   *testing.T
	ctx context.Context
	dir string
}

// newEnv gives a scenario a minute, and ends it 5 s before go test's
// -timeout would, so that its cleanups still run.
func newEnv(t *testing.T) *env {
	deadline := time.Now().Add(time.Minute)
	if end, ok := t.Deadline(); ok && end.Add(-5*time.Second).Before(deadline) {
		deadline = end.Add(-5 * time.Second)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	t.Cleanup(cancel)
	return &env{t: t, ctx: ctx, dir: t.TempDir()}
}

// proc is one child process, its stdout in out and its stderr in log.
type proc struct {
	label, out, log string
	cmd             *exec.Cmd
	done            chan struct{}
	err             error // the exit status, set before done closes
}

// start launches bin (sdserve or sdexp) from the repository root. The
// test's cleanup sends SIGTERM and waits, then SIGKILL and waits; the
// cleanups run in reverse, so a coordinator stops before its workers.
func (e *env) start(label, bin string, args ...string) *proc {
	e.t.Helper()
	p := &proc{label: label, out: e.path(label + ".out"), log: e.path(label + ".log"), done: make(chan struct{})}
	stdout, err := os.Create(p.out)
	e.must(err)
	defer stdout.Close()
	stderr, err := os.Create(p.log)
	e.must(err)
	defer stderr.Close()
	p.cmd = exec.Command(filepath.Join(binDir, bin), args...)
	p.cmd.Dir = ".."
	p.cmd.Stdout, p.cmd.Stderr = stdout, stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		e.t.Fatalf("starting %s: %v", label, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	e.t.Cleanup(func() { p.stop(syscall.SIGTERM) })
	return p
}

// stop sends sig and waits for the exit; a process still running 10 s
// later gets SIGKILL, and stop waits again.
func (p *proc) stop(sig syscall.Signal) {
	_ = p.cmd.Process.Signal(sig) // fails only once the process has exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // as above
		<-p.done
	}
}

// wait fails the test unless p exits 0 before the deadline.
func (e *env) wait(p *proc) {
	e.t.Helper()
	select {
	case <-p.done:
	case <-e.ctx.Done():
		e.t.Fatalf("%s still running at the deadline:\n%s", p.label, e.read(p.log))
	}
	if p.err != nil {
		e.t.Fatalf("%s: %v\n%s", p.label, p.err, e.read(p.log))
	}
}

// sdexp runs sdexp to completion and returns its stdout and stderr.
func (e *env) sdexp(label string, args ...string) (out, log string) {
	e.t.Helper()
	p := e.start(label, "sdexp", args...)
	e.wait(p)
	return e.read(p.out), e.read(p.log)
}

// serve starts sdserve at base URL and waits until its /healthz answers.
func (e *env) serve(label, base string, args ...string) *proc {
	e.t.Helper()
	p := e.start(label, "sdserve", append([]string{"-addr", strings.TrimPrefix(base, "http://")}, args...)...)
	e.until(label+" answering /healthz", func() bool {
		select {
		case <-p.done:
			e.t.Fatalf("%s exited during start-up: %v\n%s", label, p.err, e.read(p.log))
		default:
		}
		_, err := e.get(base + "/healthz")
		return err == nil
	})
	return p
}

// urls reserves n loopback base URLs together: every listener stays
// open until all n ports are chosen, so no port is handed out twice.
func (e *env) urls(n int) []string {
	e.t.Helper()
	var out []string
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		e.must(err)
		defer l.Close()
		out = append(out, "http://"+l.Addr().String())
	}
	return out
}

// until polls cond every 10 ms and fails the test if the deadline
// passes before it holds.
func (e *env) until(what string, cond func() bool) {
	e.t.Helper()
	for !cond() {
		select {
		case <-e.ctx.Done():
			e.t.Fatalf("deadline passed waiting for %s", what)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (e *env) must(err error) {
	e.t.Helper()
	if err != nil {
		e.t.Fatal(err)
	}
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

func (e *env) write(name, content string) string {
	e.t.Helper()
	e.must(os.WriteFile(e.path(name), []byte(content), 0o644))
	return e.path(name)
}

func (e *env) read(path string) string {
	e.t.Helper()
	data, err := os.ReadFile(path)
	e.must(err)
	return string(data)
}

// get returns the body of a 200 reply to GET url.
func (e *env) get(url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(e.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, err
}

// getJSON decodes the 200 reply to GET url into v.
func (e *env) getJSON(url string, v any) {
	e.t.Helper()
	body, err := e.get(url)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	e.must(err)
}

// create POSTs a JSON body, under campaign ID id when non-empty, and
// returns the Location of the 201 reply.
func (e *env) create(url, id, body string) string {
	e.t.Helper()
	req, err := http.NewRequestWithContext(e.ctx, http.MethodPost, url, strings.NewReader(body))
	e.must(err)
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Campaign-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	e.must(err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		e.t.Fatalf("POST %s: %s: %s", url, resp.Status, msg)
	}
	return resp.Header.Get("Location")
}

// frame is the part of a stream frame the scenarios check.
type frame struct {
	Trace      bool              `json:"trace"`
	CampaignID string            `json:"campaign_id"`
	Points     int               `json:"points"`
	Shards     []json.RawMessage `json:"shards"`
	Peers      []json.RawMessage `json:"peers"`
	Done       bool              `json:"done"`
	Error      any               `json:"error"`
	Summary    *struct {
		Static struct{ Jobs int }
		SD     struct {
			MalleableStarts int `json:"malleable_starts"`
		}
	} `json:"summary"`
}

// frames attaches to a resource's NDJSON stream from the first frame
// and reads it to the end.
func (e *env) frames(url string) []frame {
	e.t.Helper()
	body, err := e.get(url + "?from=0")
	e.must(err)
	var out []frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var f frame
		e.must(dec.Decode(&f))
		out = append(out, f)
	}
	return out
}

// health is the part of /healthz the scenarios read.
type health struct {
	Role        string `json:"role"`
	InFlight    int    `json:"in_flight"`
	CacheMisses uint64 `json:"cache_misses"`
	Peers       []struct{ URL, State string }
}

func (e *env) health(base string) health {
	e.t.Helper()
	var h health
	e.getJSON(base+"/healthz", &h)
	return h
}

// alive lists the peers base's /healthz reports alive.
func (e *env) alive(base string) []string {
	var urls []string
	for _, p := range e.health(base).Peers {
		if p.State == "alive" {
			urls = append(urls, p.URL)
		}
	}
	return urls
}

// exposition matches one sample line of the Prometheus text format.
var exposition = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
	`(-?[0-9.]+([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$`)

// metrics scrapes base's /metrics, fails the test on any line outside
// the exposition format or on an empty scrape, and returns the samples
// keyed by series (name plus labels).
func (e *env) metrics(base string) map[string]float64 {
	e.t.Helper()
	body, err := e.get(base + "/metrics")
	e.must(err)
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if !exposition.MatchString(line) || err != nil {
			e.t.Fatalf("%s/metrics: malformed exposition line %q", base, line)
		}
		samples[line[:i]] = v
	}
	if len(samples) == 0 {
		e.t.Fatalf("%s/metrics: no samples", base)
	}
	return samples
}

// sum adds one series over several servers.
func (e *env) sum(series string, bases ...string) float64 {
	var n float64
	for _, b := range bases {
		n += e.metrics(b)[series]
	}
	return n
}

// same fails the test unless got is want, byte for byte.
func same(t *testing.T, what, want, got string) {
	t.Helper()
	if want == "" {
		t.Fatalf("%s: the single-process run printed nothing", what)
	}
	if got != want {
		t.Fatalf("%s differs from the single-process run:\n got: %.3000s\nwant: %.3000s", what, got, want)
	}
}

// zeroMisses fails the test unless an sdexp -cache-dir run's stderr
// says it simulated nothing.
func zeroMisses(t *testing.T, what, stderr string) {
	t.Helper()
	if !strings.Contains(stderr, " 0 misses") {
		t.Fatalf("%s simulated points it should have found in the cache logs:\n%s", what, stderr)
	}
}

// interleave merges shard outputs into one NDJSON stream by each
// line's original campaign index. A line without one sorts first, and
// the byte-diff against the baseline reports it.
func interleave(outs ...string) string {
	lines := strings.SplitAfter(strings.Join(outs, ""), "\n")
	index := func(line string) int {
		var v struct{ Index int }
		_ = json.Unmarshal([]byte(line), &v)
		return v.Index
	}
	slices.SortStableFunc(lines, func(a, b string) int { return index(a) - index(b) })
	return strings.Join(lines, "")
}

// journaledResults counts the result records a standby would recover
// from dir; a journal still missing its create record is an error.
func journaledResults(dir string) (int, error) {
	j, err := journal.Open(dir)
	if err != nil {
		return 0, err
	}
	ids, err := j.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		recs, err := j.Read(id)
		if err != nil {
			return 0, err
		}
		for _, r := range recs {
			if r.Kind == journal.KindResult {
				n++
			}
		}
	}
	return n, nil
}

// TestLauncherStopsChildren checks the cleanup every scenario relies
// on: once a test's cleanup has run, the sdserve it started is gone.
func TestLauncherStopsChildren(t *testing.T) {
	openSources(t)
	var pid int
	t.Run("fleet", func(t *testing.T) {
		e := newEnv(t)
		pid = e.serve("worker", e.urls(1)[0]).cmd.Process.Pid
	})
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Fatalf("sdserve %d outlived its test's cleanup (kill -0: %v)", pid, err)
	}
}
