package sdpolicy

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sdpolicy/internal/campaign"
	"sdpolicy/internal/workload"
)

// Point is one independent simulation task of a campaign: a workload
// preset at a scale and seed, derived through an optional chain of
// variant operations, simulated under Options. Points are comparable
// values; two Points that canonicalise equally identify the same
// simulation and share one cached result. The base workload itself is
// resolved through the process-wide generation cache, so k variant
// points over one base cost one generation plus k copy-on-write
// derivations.
type Point struct {
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale"`
	Seed     uint64  `json:"seed"`
	// MalleableFraction, when in [0, 1], re-flags that fraction of jobs
	// malleable before simulating (mixed-workload experiments). A
	// negative value keeps the generated mix. NewPoint sets -1. It is
	// the pre-derivation legacy form: canonicalisation folds it into
	// Derivations as a leading malleable_fraction op, so the two
	// spellings share one cache entry.
	MalleableFraction float64 `json:"malleable_fraction"`
	// Derivations is the canonical chain encoding (workload.Chain) of
	// the variant operations applied, in order, to the generated base
	// workload before simulating. Being a comparable string it keeps
	// Point usable directly as the campaign cache key; use
	// NewDerivedPoint or WithDerivations to populate it.
	Derivations workload.Chain `json:"derivations"`
	Options     Options        `json:"options"`
}

// NewPoint builds a Point with the generated malleable mix kept as is.
func NewPoint(workload string, scale float64, seed uint64, opt Options) Point {
	return Point{Workload: workload, Scale: scale, Seed: seed, MalleableFraction: -1, Options: opt}
}

// NewDerivedPoint builds a Point whose base workload is transformed by
// the derivation chain before simulating. Invalid derivations are
// rejected later, by Engine.Run, with ErrBadInput.
func NewDerivedPoint(name string, scale float64, seed uint64, opt Options, derivs ...Derivation) Point {
	p := NewPoint(name, scale, seed, opt)
	p.Derivations = workload.EncodeChain(derivs)
	return p
}

// WithDerivations returns the point with the derivation chain replaced.
func (p Point) WithDerivations(derivs ...Derivation) Point {
	p.Derivations = workload.EncodeChain(derivs)
	return p
}

// MarshalJSON encodes the -1 keep-mix sentinel as an absent
// malleable_fraction and the derivation chain as its JSON list, so a
// streamed point is itself a valid PointSpec: clients can resubmit any
// echoed point verbatim.
func (p Point) MarshalJSON() ([]byte, error) {
	w := PointSpec{Workload: p.Workload, Scale: p.Scale, Seed: p.Seed, Options: p.Options}
	if p.MalleableFraction >= 0 {
		w.MalleableFraction = &p.MalleableFraction
	}
	derivs, err := p.Derivations.Derivations()
	if err != nil {
		return nil, err
	}
	w.Derivations = derivs
	return json.Marshal(w)
}

// UnmarshalJSON is MarshalJSON's inverse: an absent (or null)
// malleable_fraction decodes to the -1 keep-mix sentinel rather than
// to 0, which would silently mean "re-flag zero jobs malleable".
// Scale and Seed are taken verbatim, without PointSpec's defaulting.
func (p *Point) UnmarshalJSON(data []byte) error {
	var s PointSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	p.Workload, p.Scale, p.Seed, p.Options = s.Workload, s.Scale, s.Seed, s.Options
	p.MalleableFraction = -1
	if s.MalleableFraction != nil {
		p.MalleableFraction = *s.MalleableFraction
	}
	p.Derivations = workload.EncodeChain(s.Derivations)
	return nil
}

// validate rejects float fields that would corrupt the campaign's
// map-based bookkeeping: NaN is never a valid map key (NaN != NaN, so
// a NaN-keyed point could simulate yet never deliver its result), and
// infinities are only meaningful for MaxSlowdown. It also rejects
// malformed or invalid derivation chains, so canonicalisation (which
// folds MalleableFraction into the chain) and workers (which apply it)
// operate on known-good chains.
func (p Point) validate() error {
	bad := func(field string, v float64) error {
		return fmt.Errorf("sdpolicy: point %s %v is not a finite number: %w", field, v, ErrBadInput)
	}
	if math.IsNaN(p.Scale) || math.IsInf(p.Scale, 0) {
		return bad("scale", p.Scale)
	}
	if math.IsNaN(p.MalleableFraction) || math.IsInf(p.MalleableFraction, 0) {
		return bad("malleable fraction", p.MalleableFraction)
	}
	if math.IsNaN(p.Options.MaxSlowdown) {
		return bad("max slowdown", p.Options.MaxSlowdown)
	}
	if math.IsNaN(p.Options.SharingFactor) || math.IsInf(p.Options.SharingFactor, 0) {
		return bad("sharing factor", p.Options.SharingFactor)
	}
	if math.IsNaN(p.Options.OversubPenalty) || math.IsInf(p.Options.OversubPenalty, 0) {
		return bad("oversubscription penalty", p.Options.OversubPenalty)
	}
	derivs, err := p.Derivations.Derivations()
	if err != nil {
		return fmt.Errorf("sdpolicy: %w: %w", err, ErrBadInput)
	}
	for i, d := range derivs {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("sdpolicy: derivation %d: %w: %w", i, err, ErrBadInput)
		}
	}
	return nil
}

// canonical normalises the point so that syntactically different but
// semantically identical points (e.g. Policy "" vs "static", or a
// legacy MalleableFraction vs the equivalent leading derivation) share
// one cache entry. The point must have passed validate: canonical
// panics on a malformed chain rather than silently dropping the legacy
// fraction.
func (p Point) canonical() Point {
	if p.MalleableFraction < 0 {
		p.MalleableFraction = -1
	} else {
		chain, err := p.Derivations.Prepend(workload.MalleableFraction(p.MalleableFraction))
		if err != nil {
			panic(fmt.Sprintf("sdpolicy: canonicalising unvalidated point: %v", err))
		}
		p.Derivations = chain
		p.MalleableFraction = -1
	}
	if workload.IsTraceRef(p.Workload) {
		// Trace content is fully determined by the digest; folding the
		// inert generation parameters means differently-spelled trace
		// points share one cache entry.
		p.Scale, p.Seed = 1, 1
	}
	p.Options = p.Options.Canonical()
	return p
}

// PointSpec is the JSON wire form of a Point, shared by the sdserve
// /v1/campaigns and /v1/simulate endpoints and cmd/sdexp's -points mode.
// Scale and Seed default to 1 when omitted; a nil MalleableFraction
// keeps the generated malleable mix; Derivations is the ordered variant
// chain ({"op": "tag_nodes", "fraction": 0.5, "feature": "bigmem"},
// ...) applied to the generated base workload before simulating, which
// is how the labelled ablation sweeps — including the heterogeneous
// node-feature ones — are expressed as plain points over HTTP.
type PointSpec struct {
	Workload          string       `json:"workload,omitempty"`
	Scale             float64      `json:"scale,omitempty"`
	Seed              uint64       `json:"seed,omitempty"`
	MalleableFraction *float64     `json:"malleable_fraction,omitempty"`
	Derivations       []Derivation `json:"derivations,omitempty"`
	Options           Options      `json:"options"`
}

// Validate rejects spec fields the wire layers must refuse before
// Point() collapses them into the Point sentinel encodings: a missing
// workload, an out-of-range MalleableFraction (a negative value would
// otherwise silently mean "keep the generated mix") and structurally
// invalid derivations. Errors are tagged ErrBadInput. Everything else —
// unknown workload, bad policy, NaN floats — is rejected later by
// Engine.Run.
func (s PointSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("sdpolicy: point workload missing: %w", ErrBadInput)
	}
	if f := s.MalleableFraction; f != nil && !(*f >= 0 && *f <= 1) {
		return fmt.Errorf("sdpolicy: malleable_fraction %v out of [0,1]: %w", *f, ErrBadInput)
	}
	for i, d := range s.Derivations {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("sdpolicy: derivation %d: %w: %w", i, err, ErrBadInput)
		}
	}
	return nil
}

// Point materialises the spec with its defaults applied. It performs no
// validation — call Validate first for the wire-level checks; Engine.Run
// rejects the remaining bad fields with ErrBadInput.
func (s PointSpec) Point() Point {
	scale, seed := s.Scale, s.Seed
	if scale == 0 {
		scale = 1
	}
	if seed == 0 {
		seed = 1
	}
	p := NewPoint(s.Workload, scale, seed, s.Options)
	if s.MalleableFraction != nil {
		p.MalleableFraction = *s.MalleableFraction
	}
	p.Derivations = workload.EncodeChain(s.Derivations)
	return p
}

// PointsFromSpecs runs the wire-level checks (Validate) on every spec
// and materialises the campaign points, labelling errors with the
// offending index. It is the one conversion path shared by the
// /v1/campaigns handler and cmd/sdexp -points.
func PointsFromSpecs(specs []PointSpec) ([]Point, error) {
	points := make([]Point, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		points[i] = s.Point()
	}
	return points, nil
}

// DeriveSeed deterministically expands a base seed into independent
// per-replicate seeds; replicate 0 returns the base seed itself so a
// one-replicate campaign matches a direct run.
func DeriveSeed(base uint64, replicate int) uint64 {
	if replicate == 0 {
		return base
	}
	return campaign.DeriveSeed(base, replicate)
}

// Engine runs simulation campaigns across a worker pool with memoised
// results. The zero value is not usable; use NewEngine or Default. An
// Engine is safe for concurrent use — overlapping campaigns share the
// cache and never simulate the same canonical Point twice at once.
type Engine struct {
	runner *campaign.Runner[Point, *Result]
	// store is the cache log PersistCache turned on; nil until then.
	store atomic.Pointer[cacheLog]
}

// NewEngine builds an Engine with the given worker-pool size
// (<= 0 means GOMAXPROCS) and result-cache capacity in points
// (<= 0 disables cross-campaign memoisation).
func NewEngine(workers, cacheSize int) *Engine {
	e := &Engine{}
	e.runner = campaign.New(func(ctx context.Context, p Point) (*Result, error) {
		res, err := simulatePoint(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("%s (scale %g, seed %d, %s): %w",
				p.Workload, p.Scale, p.Seed, p.Options.Policy, err)
		}
		res.encode()
		if log := e.store.Load(); log != nil {
			log.append(p, res)
		}
		return res, nil
	}, campaign.Config{Workers: workers, CacheSize: cacheSize})
	return e
}

// simulatePoint resolves one canonical point: the base workload comes
// from the process-wide generation cache (generated at most once per
// (name, scale, seed) no matter how many variants or workers ask), the
// derivation chain is applied copy-on-write, and the variant simulates.
// Its only caller hands it keys produced by canonical(), which folds
// the legacy MalleableFraction field into the chain — a lingering
// fraction here means that invariant broke, so fail loudly instead of
// re-implementing the fold.
func simulatePoint(ctx context.Context, p Point) (*Result, error) {
	if p.MalleableFraction != -1 {
		return nil, fmt.Errorf("sdpolicy: point not canonicalised (malleable fraction %v): %w",
			p.MalleableFraction, ErrBadInput)
	}
	derivs, err := p.Derivations.Derivations()
	if err != nil {
		return nil, fmt.Errorf("sdpolicy: %w: %w", err, ErrBadInput)
	}
	w, err := NewWorkload(p.Workload, p.Scale, p.Seed)
	if err != nil {
		return nil, err
	}
	w.derivs = derivs
	return SimulateContext(ctx, w, p.Options)
}

var (
	defaultEngine     *Engine
	defaultEngineOnce sync.Once
)

// Default returns the process-wide Engine (GOMAXPROCS workers, 512
// cached points) used by the package-level experiment functions.
func Default() *Engine {
	defaultEngineOnce.Do(func() {
		defaultEngine = NewEngine(runtime.GOMAXPROCS(0), 512)
	})
	return defaultEngine
}

// Run resolves every point in parallel and returns results aligned
// with points: results[i] belongs to points[i]. Duplicate points (after
// canonicalisation) simulate once. The first simulation error cancels
// the remaining work; ctx cancellation aborts the campaign — including
// any simulation already in flight, which stops at its next event-loop
// checkpoint.
func (e *Engine) Run(ctx context.Context, points []Point) ([]*Result, error) {
	return e.RunStream(ctx, points, nil)
}

// PointResult is one streamed campaign delivery: the result for
// points[Index] as passed to RunStream, echoed back with the original
// (pre-canonicalisation) point so clients can label rows without
// keeping their own index.
type PointResult struct {
	Index  int     `json:"index"`
	Point  Point   `json:"point"`
	Result *Result `json:"result"`
	// Report carries the point's per-job report encoding when a
	// coordinator relays a report campaign: the bytes its worker sent,
	// for the result frame's "report" key. It is transport metadata,
	// never part of the result line's JSON.
	Report json.RawMessage `json:"-"`
}

// RunStream resolves points like Run while additionally delivering each
// point's result on updates (when non-nil) the moment it is simulated
// or served from cache, in completion order. The final returned slice
// is byte-identical to Run's for the same input, so streaming costs no
// determinism: consumers render incrementally and merge from the
// returned slice. RunStream closes updates before returning. A consumer
// that stops draining updates must cancel ctx to release the campaign's
// workers.
func (e *Engine) RunStream(ctx context.Context, points []Point, updates chan<- PointResult) ([]*Result, error) {
	keys := make([]Point, len(points))
	for i, p := range points {
		if err := p.validate(); err != nil {
			if updates != nil {
				close(updates)
			}
			return nil, err
		}
		keys[i] = p.canonical()
	}
	if updates == nil {
		return e.runner.Run(ctx, keys)
	}
	// Bridge the runner's generic updates to PointResults carrying the
	// caller's original points. The forwarder owns closing updates;
	// waiting on forwarded guarantees that happens before we return.
	// inner is buffered for the whole campaign so worker sends never
	// block, and the forwarder tries a non-blocking send first: a
	// completed result is only dropped when the consumer's buffer is
	// full AND the context is cancelled, never by the cancellation
	// race alone.
	inner := make(chan campaign.Update[Point, *Result], len(points))
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		defer close(updates)
		for u := range inner {
			pr := PointResult{Index: u.Index, Point: points[u.Index], Result: u.Value}
			select {
			case updates <- pr:
				continue
			default:
			}
			select {
			case updates <- pr:
			case <-ctx.Done():
				// The consumer is gone; workers blocked on inner also
				// select ctx.Done, so abandoning the drain is safe.
				return
			}
		}
	}()
	results, err := e.runner.RunStream(ctx, keys, inner)
	<-forwarded
	return results, err
}

// SimulatePoint resolves one point through the engine's cache.
func (e *Engine) SimulatePoint(ctx context.Context, p Point) (*Result, error) {
	res, err := e.Run(ctx, []Point{p})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// OnProgress registers a callback invoked after each campaign point
// resolves with (resolved, total) counts for the running campaign.
func (e *Engine) OnProgress(fn func(done, total int)) { e.runner.OnProgress(fn) }

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.runner.Workers() }

// CacheStats returns how many point resolutions were served from the
// memoisation layer versus simulated.
func (e *Engine) CacheStats() (hits, misses uint64) { return e.runner.Stats() }
