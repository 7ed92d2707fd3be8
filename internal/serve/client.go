package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sdpolicy"
)

// This file is the client side of the resource wire form — the one
// place its requests and stream frames are decoded. Three callers share
// it: the coordinator's per-shard hop to its workers (which adds
// worker-fault classification on top) and, through runResource, sdexp
// -server and sdexp -experiment -server.

// streamFrame decodes any line of a /v1/campaigns/{id} or
// /v1/experiments/{id} NDJSON stream. Every frame but shutdown carries
// a monotonic Seq — the reattach cursor. A result frame of a report
// campaign carries the point's per-job report encoding in Report.
type streamFrame struct {
	Seq       uint64           `json:"seq"`
	Index     *int             `json:"index"`
	Result    *sdpolicy.Result `json:"result"`
	Report    json.RawMessage  `json:"report"`
	Row       json.RawMessage  `json:"row"`
	Summary   json.RawMessage  `json:"summary"`
	Done      *bool            `json:"done"`
	Cancelled *bool            `json:"cancelled"`
	Shutdown  *bool            `json:"shutdown"`
	Error     *ErrorDetail     `json:"error"`
}

// resultFrame decodes a result frame a server reads back from its own
// campaign's frames.
func resultFrame(data []byte) (streamFrame, error) {
	var f streamFrame
	err := json.Unmarshal(data, &f)
	if err == nil && (f.Index == nil || f.Result == nil) {
		err = errors.New("not a result frame")
	}
	return f, err
}

// statusError is a non-2xx reply, kept with its status so callers can
// tell a deterministic refusal from a transient one.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }

// readError summarises a non-2xx reply as a *statusError.
func readError(base string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &statusError{resp.StatusCode,
		fmt.Errorf("%s: status %d: %s", base, resp.StatusCode, bytes.TrimSpace(msg))}
}

// httpStatus is the status of a *statusError in err's chain, else 0.
func httpStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	return 0
}

// createResource POSTs body to base+collection under the client-chosen
// id and returns the ID the 201 reply names. Any other status,
// including 409, comes back as a *statusError.
func createResource(ctx context.Context, hc *http.Client, base, collection, id string, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+collection, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Campaign-ID", id)
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", readError(base, resp)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || created.ID == "" {
		return "", fmt.Errorf("%s: malformed create reply (%v)", base, err)
	}
	return created.ID, nil
}

// attachStream opens the NDJSON stream of resource base+collection/id
// from the cursor; the caller closes the body.
func attachStream(ctx context.Context, hc *http.Client, base, collection, id string, from uint64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s%s/%s?from=%d", base, collection, id, from), nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, readError(base, resp)
	}
	return resp, nil
}

// durable-client retry tuning: transient failures (connection refused,
// 503 from a standby, a mid-stream disconnect) rotate to the next base
// and back off exponentially; any frame with a seq resets the clock.
// The cap bounds a total outage to roughly a minute.
const (
	durableBackoffBase = 100 * time.Millisecond
	durableBackoffMax  = 2 * time.Second
	durableMaxFailures = 30
)

// runResource is the create-then-attach loop behind RunDurableCampaign
// and RunRemoteExperiment. It creates the resource once under a
// client-chosen ID (a 409 means an earlier attempt's create landed
// before it was cut off, so it attaches), then reads frames from the
// ?from= cursor, handing every seq'd frame to onFrame, until the
// terminal done frame. On a disconnect, shutdown frame or coordinator
// failover it reattaches — to any base — from the last seq. It gives up
// on deterministic failures (a create refused with 400, 404, 405 or
// 415, a bad cursor, the resource's own error or cancellation, an
// onFrame error) or after durableMaxFailures consecutive transient ones.
func runResource(ctx context.Context, client *http.Client, bases []string, collection string, body any, onFrame func(streamFrame) error) error {
	if client == nil {
		client = http.DefaultClient
	}
	if len(bases) == 0 {
		return errors.New("no server bases")
	}
	for i, b := range bases {
		bases[i] = strings.TrimRight(b, "/")
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	id := newCampaignID()
	cur, failures := 0, 0
	created := false
	var lastSeq uint64
	for {
		err := func() error {
			if !created {
				_, err := createResource(ctx, client, bases[cur], collection, id, data)
				switch httpStatus(err) {
				case http.StatusConflict:
				case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusUnsupportedMediaType:
					return &fatalStreamError{err}
				default:
					if err != nil {
						return err
					}
				}
				created = true
			}
			resp, err := attachStream(ctx, client, bases[cur], collection, id, lastSeq)
			if err != nil {
				if httpStatus(err) == http.StatusBadRequest {
					return &fatalStreamError{err}
				}
				return err
			}
			defer resp.Body.Close()
			dec := json.NewDecoder(resp.Body)
			for {
				var f streamFrame
				if err := dec.Decode(&f); err != nil {
					return fmt.Errorf("%s: stream ended early: %w", bases[cur], err)
				}
				switch {
				case f.Shutdown != nil && *f.Shutdown:
					return fmt.Errorf("%s shut down mid-stream", bases[cur])
				case f.Cancelled != nil && *f.Cancelled:
					return &fatalStreamError{fmt.Errorf("%s%s/%s was cancelled", bases[cur], collection, id)}
				case f.Error != nil:
					return &fatalStreamError{fmt.Errorf("%s%s/%s failed: %s: %s",
						bases[cur], collection, id, f.Error.Code, f.Error.Message)}
				}
				if f.Seq > 0 {
					lastSeq = f.Seq
					failures = 0
				}
				if err := onFrame(f); err != nil {
					return &fatalStreamError{err}
				}
				if f.Done != nil && *f.Done {
					return nil
				}
			}
		}()
		if err == nil {
			return nil
		}
		var fatal *fatalStreamError
		if errors.As(err, &fatal) {
			return fatal.err
		}
		failures++
		if failures >= durableMaxFailures {
			return fmt.Errorf("giving up after %d consecutive failures: %w", failures, err)
		}
		cur = (cur + 1) % len(bases)
		delay := durableBackoffBase << (failures - 1)
		if delay > durableBackoffMax || delay <= 0 {
			delay = durableBackoffMax
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// fatalStreamError marks a failure no reattach can fix: the resource
// itself ended badly or the server rejected the request
// deterministically.
type fatalStreamError struct{ err error }

func (e *fatalStreamError) Error() string { return e.err.Error() }
func (e *fatalStreamError) Unwrap() error { return e.err }

// RunDurableCampaign executes points as a /v1/campaigns resource
// against a set of equivalent server bases (the active coordinator and
// its failover standbys), calling emit once per point in completion
// order with the freshly decoded result for points[index] — and, when
// reports is true, the per-job report encoding its frame carried
// (attach it with Result.SetReportJSON, then Engine.Prime, to warm a
// local cache). It rides through interruptions as runResource
// describes, deduplicating by point index so the emit sequence is
// identical to an uninterrupted run's. It backs sdexp -server.
func RunDurableCampaign(ctx context.Context, client *http.Client, bases []string, points []sdpolicy.Point, reports bool, emit func(index int, res *sdpolicy.Result, report json.RawMessage) error) error {
	seen := make(map[int]bool)
	body := struct {
		Points  []sdpolicy.Point `json:"points"`
		Reports bool             `json:"reports,omitempty"`
	}{points, reports}
	return runResource(ctx, client, bases, "/v1/campaigns", body, func(f streamFrame) error {
		if f.Index == nil || seen[*f.Index] {
			return nil
		}
		if *f.Index < 0 || *f.Index >= len(points) || f.Result == nil {
			return fmt.Errorf("malformed result frame (index %d)", *f.Index)
		}
		seen[*f.Index] = true
		return emit(*f.Index, f.Result, f.Report)
	})
}

// RunRemoteExperiment creates the named experiment (params marshals as
// the request's params object; nil means all defaults) on one of the
// equivalent server bases and streams its reduced view, calling onRow
// (when non-nil) for each incremental row in stream order and returning
// the terminal summary's raw JSON — byte-identical to json.Marshal of
// the local Engine helper's return value, which is what lets sdexp
// render remote runs through the same code paths as local ones. The
// ?from= cursor already deduplicates rows across reattaches, so rows
// are delivered exactly once. It backs sdexp -experiment -server.
func RunRemoteExperiment(ctx context.Context, client *http.Client, bases []string, experiment string, params any, onRow func(row json.RawMessage)) (json.RawMessage, error) {
	var summary json.RawMessage
	body := struct {
		Experiment string `json:"experiment"`
		Params     any    `json:"params,omitempty"`
	}{experiment, params}
	err := runResource(ctx, client, bases, "/v1/experiments", body, func(f streamFrame) error {
		if len(f.Row) > 0 && onRow != nil {
			onRow(f.Row)
		}
		if f.Done != nil && *f.Done {
			summary = f.Summary
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return summary, nil
}
