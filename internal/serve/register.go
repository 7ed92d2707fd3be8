package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Dynamic worker registration: POST /v1/workers/register announces a
// worker to a coordinator (sdserve -join does this on the worker's
// behalf), granting a TTL'd lease the worker renews by re-registering —
// the heartbeat. An unrenewed lease expires and the peer is dropped;
// POST /v1/workers/deregister removes it immediately on graceful
// shutdown. Registered and static (-peers) workers share the same peer
// set, health prober, and campaign fan-out.

// Lease bounds: a requested TTL is clamped into [minLeaseTTL,
// maxLeaseTTL]; 0 means the coordinator's configured default.
const (
	minLeaseTTL = time.Second
	maxLeaseTTL = 10 * time.Minute
)

// RegisterRequest is the /v1/workers/register (and deregister) body.
type RegisterRequest struct {
	// URL is the worker's own base URL, reachable from the coordinator.
	URL string `json:"url"`
	// TTLSeconds requests a lease duration; 0 means the coordinator's
	// default. The granted value is echoed in the response — workers
	// should heartbeat at a fraction (JoinLoop uses a third) of it.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// RegisterResponse echoes the normalised worker URL and granted lease.
type RegisterResponse struct {
	URL        string  `json:"url"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// handleRegister adds the announcing worker to the coordinator's fleet
// or renews its lease. Registration doubles as recovery: a worker that
// was marked dead returns to rotation the moment it re-announces.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRegistration(w, r)
	if !ok {
		return
	}
	ttl := s.coord.leaseTTL
	if req.TTLSeconds != 0 {
		ttl = time.Duration(req.TTLSeconds * float64(time.Second))
	}
	// Clamp whichever source the TTL came from: a misconfigured
	// coordinator default must not grant sub-second leases (expiring
	// between prober ticks) or multi-hour ones (a vanished worker
	// holding fleet membership) any more than an explicit request may.
	if ttl < minLeaseTTL {
		ttl = minLeaseTTL
	}
	if ttl > maxLeaseTTL {
		ttl = maxLeaseTTL
	}
	u, err := s.coord.peers.register(req.URL, ttl)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{URL: u, TTLSeconds: ttl.Seconds()})
}

// handleDeregister removes a registered worker from the fleet.
func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRegistration(w, r)
	if !ok {
		return
	}
	if err := s.coord.peers.deregister(req.URL); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{URL: req.URL})
}

// decodeRegistration shares the register/deregister preamble: the
// instance must be a coordinator (a plain worker has no fleet to join),
// and the body must carry a worker URL.
func (s *Server) decodeRegistration(w http.ResponseWriter, r *http.Request) (RegisterRequest, bool) {
	var req RegisterRequest
	if s.coord == nil {
		writeError(w, http.StatusConflict, errors.New("this instance is not a coordinator; point -join at one"))
		return req, false
	}
	// A journal-backed standby refuses registrations so workers stick
	// with the active coordinator (whose peers.json the standby adopts
	// on failover); a worker's multi-base JoinLoop rotates here — and
	// is accepted — only once this instance holds the lease.
	if s.journal != nil && !s.active.Load() {
		writeError(w, http.StatusServiceUnavailable, errStandby)
		return req, false
	}
	if !s.decode(w, r, &req, nil) {
		return req, false
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing worker url"))
		return req, false
	}
	return req, true
}

// Register announces the worker at self to the coordinator at base,
// requesting (and returning) a lease TTL. It is one heartbeat; JoinLoop
// wraps it in renewal and deregistration.
func Register(ctx context.Context, client *http.Client, base, self string, ttl time.Duration) (time.Duration, error) {
	var resp RegisterResponse
	if err := postRegistration(ctx, client, base, "/v1/workers/register",
		RegisterRequest{URL: self, TTLSeconds: ttl.Seconds()}, &resp); err != nil {
		return 0, err
	}
	granted := time.Duration(resp.TTLSeconds * float64(time.Second))
	if granted <= 0 {
		return 0, fmt.Errorf("%s granted a non-positive lease (%v seconds)", base, resp.TTLSeconds)
	}
	return granted, nil
}

// Deregister removes the worker at self from the coordinator at base.
func Deregister(ctx context.Context, client *http.Client, base, self string) error {
	return postRegistration(ctx, client, base, "/v1/workers/deregister", RegisterRequest{URL: self}, nil)
}

// postRegistration POSTs one registration-API request and decodes the
// reply into out when non-nil.
func postRegistration(ctx context.Context, client *http.Client, base, path string, req RegisterRequest, out any) error {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readError(base, resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// JoinLoop keeps the worker at self registered with a coordinator until
// ctx ends, then deregisters: the client half of elastic fleet
// membership, backing sdserve -join. bases lists equivalent coordinator
// endpoints (typically the active coordinator and its failover
// standbys); each heartbeat sticks with the base that last accepted a
// registration and rotates to the next on failure, so when a standby
// adopts the fleet the worker's very next heartbeat re-registers it
// there — membership survives coordinator failover without waiting for
// the standby's persisted-peer adoption to be complete or fresh.
//
// It registers immediately, heartbeats at a third of the granted lease
// TTL (so two heartbeats can be lost before the lease expires), retries
// failed announcements at the same cadence, and reports state changes
// through logf (which may be nil). JoinLoop returns once the final
// deregistration completes.
func JoinLoop(ctx context.Context, client *http.Client, bases []string, self string, ttl time.Duration, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(bases) == 0 {
		return
	}
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	interval := ttl / 3
	registered := false
	cur := 0
	heartbeat := func() {
		hbCtx, cancel := context.WithTimeout(ctx, interval)
		defer cancel()
		// One pass over the bases starting at the sticky one: the common
		// case (healthy coordinator) costs one request, and a failover
		// costs one failed request before the standby picks up the lease.
		var firstErr error
		for try := 0; try < len(bases); try++ {
			base := bases[(cur+try)%len(bases)]
			granted, err := Register(hbCtx, client, base, self, ttl)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", base, err)
				}
				continue
			}
			if !registered || try != 0 {
				logf("join: registered with %s (lease %v)", base, granted)
			}
			cur = (cur + try) % len(bases)
			registered = true
			interval = granted / 3
			return
		}
		if ctx.Err() != nil {
			return
		}
		if registered {
			logf("join: lost all coordinators (%v)", firstErr)
		} else {
			logf("join: cannot register (will retry): %v", firstErr)
		}
		registered = false
	}
	heartbeat()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			heartbeat()
			ticker.Reset(interval)
		case <-ctx.Done():
			if registered {
				// ctx is already done; deregister on a fresh deadline so
				// graceful shutdown still removes the lease promptly.
				base := bases[cur]
				dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				if err := Deregister(dctx, client, base, self); err != nil {
					logf("join: deregistering from %s: %v", base, err)
				} else {
					logf("join: deregistered from %s", base)
				}
			}
			return
		}
	}
}
