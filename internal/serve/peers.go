package serve

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"time"
)

// This file is the coordinator's peer-set abstraction: one fleet
// membership table shared by statically configured workers (-peers) and
// dynamically registered ones (-join via POST /v1/workers/register).
// Campaign fan-out, the background health prober, lease expiry, and
// /healthz all read and write the same table, so "a worker" means the
// same thing no matter how it arrived.
//
// Lifecycle of a peer:
//
//	alive ──campaign/probe failure──▶ dead ──backoff elapses──▶ probing
//	  ▲                                                            │
//	  └──────────────── /healthz probe succeeds ◀──────────────────┘
//
// Static peers cycle through those states forever; registered peers
// additionally carry a TTL'd lease that the worker renews by
// re-registering (its heartbeat), and are dropped entirely once the
// lease expires unrenewed. A re-register at any time short-circuits the
// backoff and returns the peer to rotation immediately — the worker
// itself is the best health probe there is.

// Peer states, reported verbatim in /healthz.
const (
	peerAlive   = "alive"   // in rotation for campaign fan-out
	peerDead    = "dead"    // out of rotation, waiting out its probe backoff
	peerProbing = "probing" // out of rotation, health probe in flight
)

// probe tuning. probeDelay doubles from probeBackoffBase per
// consecutive failure and saturates at probeBackoffMax, so a worker
// that is down for an hour costs a probe every ~30s, not a probe per
// tick, while a freshly failed worker is re-checked almost immediately.
// probeTimeout bounds each /healthz probe and each shard DELETE.
const (
	probeBackoffBase = 500 * time.Millisecond
	probeBackoffMax  = 30 * time.Second
	probeTimeout     = 2 * time.Second
)

// probeDelay is the wait before re-probing a peer that has failed
// `failures` consecutive times (campaign faults and failed probes both
// count). Exposed as a pure function so the schedule is testable.
func probeDelay(failures int) time.Duration {
	if failures <= 1 {
		return probeBackoffBase
	}
	d := probeBackoffBase
	for i := 1; i < failures; i++ {
		d *= 2
		if d >= probeBackoffMax {
			return probeBackoffMax
		}
	}
	return d
}

// PeerStatus is one fleet member's state as reported by /healthz.
type PeerStatus struct {
	URL    string `json:"url"`
	Source string `json:"source"` // "static" | "registered"
	State  string `json:"state"`  // "alive" | "dead" | "probing"
	// ConsecutiveFailures counts campaign faults and failed health
	// probes since the peer last responded; reset on recovery.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LastError is the most recent fault, kept while the peer is out of
	// rotation; cleared on recovery.
	LastError string `json:"last_error,omitempty"`
	// LeaseExpiresInSeconds is how long the registered peer's heartbeat
	// lease has left; absent for static peers, which never expire.
	LeaseExpiresInSeconds float64 `json:"lease_expires_in_seconds,omitempty"`
}

// peer is one fleet member.
type peer struct {
	url       string
	static    bool
	state     string
	failures  int
	lastErr   string
	nextProbe time.Time
	leaseEnd  time.Time // registered peers only
}

// setState moves the peer through its state machine, counting the
// transition (from "new" on first entry) so /metrics shows each peer's
// alive↔dead↔probing history. Entering rotation zeroes the backoff
// gauge. Callers hold the peerSet lock.
func (p *peer) setState(to string) {
	from := p.state
	if from == to {
		return
	}
	if from == "" {
		from = "new"
	}
	mPeerTransitions.With(p.url, from, to).Inc()
	p.state = to
	if to == peerAlive {
		mProbeBackoff.With(p.url).Set(0)
	}
}

// peerSet is the mutable fleet membership table. All methods are safe
// for concurrent use. Subscribers (in-flight campaign fan-outs) get a
// non-blocking ping whenever a peer enters rotation, so they can spawn
// a worker loop for it mid-campaign.
type peerSet struct {
	mu    sync.Mutex
	peers map[string]*peer
	// order preserves first-appearance order (static config order, then
	// registration order) for deterministic /healthz output.
	order []string
	now   func() time.Time
	subs  map[chan struct{}]struct{}
	// persist, when set, is called (outside the lock) with the full
	// registered-worker URL list after every membership change, so a
	// journal-backed coordinator can spill the fleet for failover
	// adoption. Static peers are configuration and are not included.
	persist func([]string)
}

// setPersist installs the membership spill hook.
func (ps *peerSet) setPersist(fn func([]string)) {
	ps.mu.Lock()
	ps.persist = fn
	ps.mu.Unlock()
}

// persistFlushLocked snapshots the registered (non-static) URLs and
// returns a closure that hands them to the persist hook. Callers hold
// ps.mu and must run the closure after unlocking — the hook does file
// I/O and must not stall the table. Returns nil when no hook is set.
func (ps *peerSet) persistFlushLocked() func() {
	if ps.persist == nil {
		return nil
	}
	urls := make([]string, 0, len(ps.order))
	for _, u := range ps.order {
		if !ps.peers[u].static {
			urls = append(urls, u)
		}
	}
	fn := ps.persist
	return func() { fn(urls) }
}

// normalizeWorkerURL validates and normalises a worker base URL.
func normalizeWorkerURL(raw string) (string, error) {
	w := strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(w)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return "", fmt.Errorf("worker %q is not an http(s) base URL", raw)
	}
	return w, nil
}

// newPeerSet builds the table over the static worker URLs (which may be
// empty: an elastic fleet can be populated entirely by registration).
func newPeerSet(static []string) (*peerSet, error) {
	ps := &peerSet{
		peers: make(map[string]*peer),
		now:   time.Now,
		subs:  make(map[chan struct{}]struct{}),
	}
	for _, raw := range static {
		u, err := normalizeWorkerURL(raw)
		if err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		if _, dup := ps.peers[u]; dup {
			continue
		}
		p := &peer{url: u, static: true}
		p.setState(peerAlive)
		ps.peers[u] = p
		ps.order = append(ps.order, u)
	}
	return ps, nil
}

// subscribe registers a notification channel pinged (non-blocking)
// whenever a peer enters rotation. The returned cancel must be called
// before the channel is abandoned.
func (ps *peerSet) subscribe(ch chan struct{}) (cancel func()) {
	ps.mu.Lock()
	ps.subs[ch] = struct{}{}
	ps.mu.Unlock()
	return func() {
		ps.mu.Lock()
		delete(ps.subs, ch)
		ps.mu.Unlock()
	}
}

// notifyLocked pings every subscriber. Callers hold ps.mu.
func (ps *peerSet) notifyLocked() {
	for ch := range ps.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// register adds the worker to the fleet (or renews its lease — the
// heartbeat) and returns it to rotation immediately: the announcement
// itself proves liveness. Registering a URL that is already a static
// peer just revives it; the peer stays static and never expires.
func (ps *peerSet) register(raw string, ttl time.Duration) (string, error) {
	u, err := normalizeWorkerURL(raw)
	if err != nil {
		return "", err
	}
	// Deferred in this order so flush (set only on membership change)
	// runs after the unlock: LIFO puts the Unlock first.
	var flush func()
	defer func() {
		if flush != nil {
			flush()
		}
	}()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, ok := ps.peers[u]
	if !ok {
		p = &peer{url: u}
		ps.peers[u] = p
		ps.order = append(ps.order, u)
		flush = ps.persistFlushLocked()
	}
	if !p.static {
		if ok {
			mLeaseRenewals.Inc()
		}
		p.leaseEnd = ps.now().Add(ttl)
	}
	wasAlive := p.state == peerAlive
	p.setState(peerAlive)
	p.failures = 0
	p.lastErr = ""
	if !wasAlive {
		ps.notifyLocked()
	}
	return u, nil
}

// deregister removes a registered worker from the fleet. Static peers
// cannot be deregistered (they are configuration, not announcements).
func (ps *peerSet) deregister(raw string) error {
	u, err := normalizeWorkerURL(raw)
	if err != nil {
		return err
	}
	var flush func()
	defer func() {
		if flush != nil {
			flush()
		}
	}()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, ok := ps.peers[u]
	if !ok {
		return fmt.Errorf("worker %s is not registered", u)
	}
	if p.static {
		return fmt.Errorf("worker %s is a static peer; remove it from -peers instead", u)
	}
	ps.removeLocked(u)
	flush = ps.persistFlushLocked()
	return nil
}

// removeLocked drops a peer from the table and the order slice.
func (ps *peerSet) removeLocked(u string) {
	delete(ps.peers, u)
	for i, o := range ps.order {
		if o == u {
			ps.order = append(ps.order[:i], ps.order[i+1:]...)
			break
		}
	}
}

// expireLeases drops registered peers whose heartbeat lease ran out —
// the worker stopped renewing, so it is gone, not merely unhealthy, and
// probing it forever would leak table entries.
func (ps *peerSet) expireLeases() {
	var flush func()
	defer func() {
		if flush != nil {
			flush()
		}
	}()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	now := ps.now()
	for _, u := range append([]string(nil), ps.order...) {
		p := ps.peers[u]
		if !p.static && now.After(p.leaseEnd) {
			mLeaseExpiries.Inc()
			ps.removeLocked(u)
			flush = ps.persistFlushLocked()
		}
	}
}

// markFault takes a peer out of rotation after a campaign fault.
// transient faults (429/503 — the worker is up but refusing work) are
// re-probed at the next prober tick instead of waiting out the backoff,
// since the refusal usually clears as soon as a slot frees.
func (ps *peerSet) markFault(u string, err error, transient bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, ok := ps.peers[u]
	if !ok {
		return
	}
	p.setState(peerDead)
	p.failures++
	if err != nil {
		p.lastErr = err.Error()
	}
	if transient {
		p.nextProbe = ps.now()
		mProbeBackoff.With(u).Set(0)
	} else {
		delay := probeDelay(p.failures)
		p.nextProbe = ps.now().Add(delay)
		mProbeBackoff.With(u).Set(delay.Seconds())
	}
}

// probeCandidates flips every out-of-rotation peer whose backoff has
// elapsed to probing and returns their URLs; the prober owns them until
// it reports back through probeResult.
func (ps *peerSet) probeCandidates() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	now := ps.now()
	var due []string
	for _, u := range ps.order {
		p := ps.peers[u]
		if p.state == peerDead && !p.nextProbe.After(now) {
			p.setState(peerProbing)
			due = append(due, u)
		}
	}
	return due
}

// probeResult records a health probe's outcome: success returns the
// peer to rotation (and wakes in-flight campaigns); failure re-arms the
// backoff with one more consecutive failure on the clock.
func (ps *peerSet) probeResult(u string, err error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p, ok := ps.peers[u]
	if !ok || p.state != peerProbing {
		// Deregistered, expired, or revived by a re-register while the
		// probe was in flight: nothing to record.
		return
	}
	if err == nil {
		p.setState(peerAlive)
		p.failures = 0
		p.lastErr = ""
		ps.notifyLocked()
		return
	}
	mProbeFailures.With(u).Inc()
	p.setState(peerDead)
	p.failures++
	p.lastErr = err.Error()
	delay := probeDelay(p.failures)
	p.nextProbe = ps.now().Add(delay)
	mProbeBackoff.With(u).Set(delay.Seconds())
}

// alive returns the URLs currently in rotation, in table order.
func (ps *peerSet) alive() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []string
	for _, u := range ps.order {
		if ps.peers[u].state == peerAlive {
			out = append(out, u)
		}
	}
	return out
}

// revivable reports whether any out-of-rotation peer could plausibly
// return within one prober cycle: a probe already in flight, or a
// transiently faulted peer whose re-probe is due now. Peers still
// waiting out a backoff (a hard fault like connection refused) do NOT
// count — for those, failing a stranded campaign fast beats making the
// client wait out an arbitrary backoff ladder.
func (ps *peerSet) revivable() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	now := ps.now()
	for _, u := range ps.order {
		p := ps.peers[u]
		if p.state == peerProbing || (p.state == peerDead && !p.nextProbe.After(now)) {
			return true
		}
	}
	return false
}

// fleetSize returns the number of known peers regardless of state —
// the planning granularity input: a momentarily dead worker still
// deserves shards to steal once it is probed back.
func (ps *peerSet) fleetSize() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.peers)
}

// snapshot reports every peer's state for /healthz in table order:
// static peers first (only newPeerSet inserts them, in configuration
// order), then registered peers in registration order.
func (ps *peerSet) snapshot() []PeerStatus {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	now := ps.now()
	out := make([]PeerStatus, 0, len(ps.order))
	for _, u := range ps.order {
		p := ps.peers[u]
		st := PeerStatus{
			URL:                 p.url,
			Source:              "registered",
			State:               p.state,
			ConsecutiveFailures: p.failures,
			LastError:           p.lastErr,
		}
		if p.static {
			st.Source = "static"
		} else if left := p.leaseEnd.Sub(now).Seconds(); left > 0 {
			st.LeaseExpiresInSeconds = left
		}
		out = append(out, st)
	}
	return out
}
