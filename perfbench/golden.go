package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"
)

// goldenPoint is one line of the golden oracle: a campaign point in its
// wire form and the exact result bytes the committed kernel produced.
type goldenPoint struct {
	point  json.RawMessage
	result []byte
}

// loadGolden reads the oracle file, one {"index","point","result"} JSON
// object per line in index order.
func loadGolden(path string) ([]goldenPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden campaign: %w", err)
	}
	var points []goldenPoint
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line struct {
			Index  int             `json:"index"`
			Point  json.RawMessage `json:"point"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("golden line %d: %w", len(points)+1, err)
		}
		if line.Index != len(points) || len(line.Point) == 0 || len(line.Result) == 0 {
			return nil, fmt.Errorf("golden line %d: want index %d with a point and a result", len(points)+1, len(points))
		}
		var res bytes.Buffer
		if err := json.Compact(&res, line.Result); err != nil {
			return nil, fmt.Errorf("golden line %d: %w", len(points)+1, err)
		}
		points = append(points, goldenPoint{point: line.Point, result: res.Bytes()})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading golden campaign: %w", err)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("golden campaign %s is empty", path)
	}
	return points, nil
}

// matches reports whether a delivered result encodes exactly the
// oracle's bytes, ignoring insignificant whitespace.
func (g goldenPoint) matches(result []byte) bool {
	if bytes.Equal(result, g.result) {
		return true
	}
	var buf bytes.Buffer
	return json.Compact(&buf, result) == nil && bytes.Equal(buf.Bytes(), g.result)
}

// submissionOrder is the order in which campaign rep submits its size
// points, each of the n golden points size/n times: a permutation drawn
// from the run's seed, different for every rep, so that a run's figures
// average over many orders instead of depending on where the expensive
// points happen to sit. It returns golden indices.
func submissionOrder(seed uint64, rep uint64, size, n int) []int {
	order := rand.New(rand.NewPCG(seed, rep)).Perm(size)
	for i := range order {
		order[i] %= n
	}
	return order
}

// campaignRun is what one campaign delivered to its client.
type campaignRun struct {
	// points is how many points the campaign submitted.
	points int
	// wall is the time from submission until the client held every
	// result (or the stream ended).
	wall time.Duration
	// latency holds, per delivered point, the time from submission
	// until the client held that point's result.
	latency []time.Duration
	// failed counts points that were never delivered, delivered twice,
	// or delivered with bytes that differ from the oracle.
	failed int
}

// tally is the per-position bookkeeping a campaign client keeps while
// results stream in, in submission order.
type tally struct {
	golden []goldenPoint
	order  []int
	seen   []bool
	start  time.Time
	run    campaignRun
}

func newTally(golden []goldenPoint, order []int) *tally {
	return &tally{golden: golden, order: order, seen: make([]bool, len(order)), start: time.Now()}
}

// deliver records the result for submission position pos.
func (t *tally) deliver(pos int, result []byte) {
	if pos < 0 || pos >= len(t.order) || t.seen[pos] {
		t.run.failed++
		return
	}
	t.seen[pos] = true
	t.run.latency = append(t.run.latency, time.Since(t.start))
	if !t.golden[t.order[pos]].matches(result) {
		t.run.failed++
	}
}

// finish closes the campaign, counting every undelivered point failed.
func (t *tally) finish() campaignRun {
	t.run.points = len(t.order)
	t.run.wall = time.Since(t.start)
	for _, ok := range t.seen {
		if !ok {
			t.run.failed++
		}
	}
	return t.run
}
