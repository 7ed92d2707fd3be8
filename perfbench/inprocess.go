package main

import (
	"context"
	"encoding/json"
	"fmt"

	"sdpolicy"
)

// inProcess runs campaigns on an Engine inside the benchmark process:
// the library path cmd/sdexp takes, with no HTTP hop and no journal.
type inProcess struct {
	golden []goldenPoint
	points []sdpolicy.Point
	engine *sdpolicy.Engine
}

func newInProcess(golden []goldenPoint) (*inProcess, error) {
	points := make([]sdpolicy.Point, len(golden))
	for i, g := range golden {
		if err := json.Unmarshal(g.point, &points[i]); err != nil {
			return nil, fmt.Errorf("golden point %d: %w", i, err)
		}
	}
	// No result cache: every campaign simulates every point, like the
	// cold fleet, on the same number of simulation workers.
	return &inProcess{golden: golden, points: points, engine: sdpolicy.NewEngine(simWorkers, 0)}, nil
}

func (p *inProcess) campaign(ctx context.Context, order []int) (campaignRun, error) {
	pts := make([]sdpolicy.Point, len(order))
	for i, gi := range order {
		pts[i] = p.points[gi]
	}
	t := newTally(p.golden, order)
	updates := make(chan sdpolicy.PointResult, len(pts))
	errc := make(chan error, 1)
	go func() {
		_, err := p.engine.RunStream(ctx, pts, updates)
		errc <- err
	}()
	var encErr error
	for u := range updates {
		raw, err := json.Marshal(u.Result)
		if err != nil && encErr == nil {
			encErr = fmt.Errorf("encoding result %d: %w", u.Index, err)
		}
		t.deliver(u.Index, raw)
	}
	run := t.finish()
	if err := <-errc; err != nil {
		return run, fmt.Errorf("in-process campaign: %w", err)
	}
	return run, encErr
}

func (p *inProcess) counters(context.Context) (counters, error) {
	hits, misses := p.engine.CacheStats()
	return counters{cacheHits: hits, cacheMisses: misses}, nil
}

func (p *inProcess) debugAddrs() []string { return nil }

func (p *inProcess) close() {}
