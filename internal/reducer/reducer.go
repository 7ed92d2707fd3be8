// Package reducer turns experiments into declarative descriptors: a
// named, parameterised point-set generator plus an incremental reducer
// that folds per-point results into rows as they stream in and a
// terminal summary once the set is complete. One registry of
// descriptors drives both the local experiment helpers (fold a slice
// of results in order) and a streaming server (fold journaled result
// frames and ship rows + summary instead of raw points), so the two
// can never disagree about what an experiment computes.
//
// The package is generic over the point type P and the result type R —
// it deliberately knows nothing about simulations — which is what lets
// the root package register descriptors without an import cycle.
package reducer

import (
	"encoding/json"
	"fmt"
	"math"
)

// Parameter type names used by ParamSpec.Type. They double as the
// JSON-schema-ish vocabulary of the experiment listing endpoint.
const (
	TypeString  = "string"
	TypeFloat   = "float"
	TypeUint    = "uint"
	TypeBool    = "bool"
	TypeStrings = "[]string"
	TypeFloats  = "[]float"
	TypeInts    = "[]int"
)

// ParamSpec describes one experiment parameter: its wire name, type
// (one of the Type* constants) and the default applied when a caller
// omits it. Defaults must already hold the canonical Go value for the
// type (float64, uint64, []string, []float64, []int, string, bool).
type ParamSpec struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Default     any    `json:"default,omitempty"`
	Description string `json:"description,omitempty"`
}

// Params is a resolved parameter set: every declared name present,
// every value in its canonical Go type. Build one with Resolve or
// ResolveJSON; the typed getters assume that invariant and return the
// zero value on a missing or mistyped key rather than panicking.
type Params map[string]any

func (p Params) String(name string) string { v, _ := p[name].(string); return v }
func (p Params) Float(name string) float64 { v, _ := p[name].(float64); return v }
func (p Params) Uint(name string) uint64   { v, _ := p[name].(uint64); return v }
func (p Params) Bool(name string) bool     { v, _ := p[name].(bool); return v }

func (p Params) Strings(name string) []string { v, _ := p[name].([]string); return v }
func (p Params) Floats(name string) []float64 { v, _ := p[name].([]float64); return v }
func (p Params) Ints(name string) []int       { v, _ := p[name].([]int); return v }

// Resolve applies the specs' defaults to the given values and
// canonicalises the result: unknown names and values that cannot be
// coerced to the declared type are errors, so a typo fails loudly
// instead of silently running the default experiment.
func Resolve(specs []ParamSpec, given Params) (Params, error) {
	out := make(Params, len(specs))
	for _, ps := range specs {
		out[ps.Name] = ps.Default
	}
	for name, v := range given {
		ps := findSpec(specs, name)
		if ps == nil {
			return nil, fmt.Errorf("unknown parameter %q", name)
		}
		cv, err := coerce(ps.Type, v)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", name, err)
		}
		out[name] = cv
	}
	return out, nil
}

// ResolveJSON is Resolve for wire input: each provided value is decoded
// from its raw JSON encoding according to the declared type.
func ResolveJSON(specs []ParamSpec, raw map[string]json.RawMessage) (Params, error) {
	given := make(Params, len(raw))
	for name, data := range raw {
		ps := findSpec(specs, name)
		if ps == nil {
			return nil, fmt.Errorf("unknown parameter %q", name)
		}
		v, err := decodeParam(ps.Type, data)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", name, err)
		}
		given[name] = v
	}
	return Resolve(specs, given)
}

func findSpec(specs []ParamSpec, name string) *ParamSpec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}

// coerce normalises an in-process value to the canonical Go type of a
// parameter type name. It accepts the obvious widening conversions
// (int where a float or uint is declared) so local callers can pass
// literals without casts.
func coerce(typ string, v any) (any, error) {
	switch typ {
	case TypeString:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case TypeBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case TypeFloat:
		switch n := v.(type) {
		case float64:
			return n, nil
		case int:
			return float64(n), nil
		}
	case TypeUint:
		switch n := v.(type) {
		case uint64:
			return n, nil
		case int:
			if n >= 0 {
				return uint64(n), nil
			}
		case float64:
			if n >= 0 && n == math.Trunc(n) {
				return uint64(n), nil
			}
		}
	case TypeStrings:
		if s, ok := v.([]string); ok {
			return s, nil
		}
	case TypeFloats:
		if s, ok := v.([]float64); ok {
			return s, nil
		}
	case TypeInts:
		if s, ok := v.([]int); ok {
			return s, nil
		}
	default:
		return nil, fmt.Errorf("descriptor declares unknown type %q", typ)
	}
	return nil, fmt.Errorf("want %s, got %T", typ, v)
}

func decodeParam(typ string, data json.RawMessage) (any, error) {
	var err error
	switch typ {
	case TypeString:
		var v string
		if err = json.Unmarshal(data, &v); err == nil {
			return v, nil
		}
	case TypeBool:
		var v bool
		if err = json.Unmarshal(data, &v); err == nil {
			return v, nil
		}
	case TypeFloat:
		var v float64
		if err = json.Unmarshal(data, &v); err == nil {
			return v, nil
		}
	case TypeUint:
		var v uint64
		if err = json.Unmarshal(data, &v); err == nil {
			return v, nil
		}
	case TypeStrings:
		var v []string
		if err = json.Unmarshal(data, &v); err == nil {
			return v, nil
		}
	case TypeFloats:
		var v []float64
		if err = json.Unmarshal(data, &v); err == nil {
			return v, nil
		}
	case TypeInts:
		var v []int
		if err = json.Unmarshal(data, &v); err == nil {
			return v, nil
		}
	default:
		return nil, fmt.Errorf("descriptor declares unknown type %q", typ)
	}
	return nil, fmt.Errorf("want %s: %w", typ, err)
}

// Instance is one parameterised run of an experiment: a fixed point
// set plus the fold state accumulating its results. Instances are not
// safe for concurrent use; every consumer (a local helper, one stream
// attach) builds its own from the descriptor.
type Instance[P, R any] interface {
	// Points returns the campaign point set, fixed for the instance's
	// lifetime. It may be empty for generation-only experiments whose
	// Summary needs no simulation.
	Points() []P
	// Fold consumes the result for Points()[index] and returns the rows
	// that became computable with it. Indices arrive in any order, at
	// most once each; given the same delivery order the emitted rows
	// must be identical, which is what makes a replayed stream
	// byte-stable.
	Fold(index int, result R) ([]any, error)
	// Summary returns the experiment's complete typed result. It must
	// only be called after every index has been folded.
	Summary() (any, error)
}

// Descriptor declares one experiment: its registry name, the
// parameters it accepts, and the constructor turning resolved
// parameters into a fold instance.
type Descriptor[P, R any] struct {
	Name        string
	Title       string
	Description string
	Params      []ParamSpec
	// NeedsReports marks experiments whose Summary consumes per-point
	// reports beyond the result wire form; a server backing the
	// experiment with a campaign must ask for them, and attach each to
	// its result before Fold.
	NeedsReports bool
	// New builds a fold instance from a fully resolved parameter set
	// (see Resolve); it must not assume defaults were applied by anyone
	// else.
	New func(Params) (Instance[P, R], error)
}

// Instance resolves the given parameters against the descriptor's
// specs and builds a fold instance.
func (d *Descriptor[P, R]) Instance(given Params) (Instance[P, R], error) {
	p, err := Resolve(d.Params, given)
	if err != nil {
		return nil, err
	}
	return d.New(p)
}

// Registry is an ordered collection of descriptors. Registration
// happens at package init time; lookups after that need no locking.
type Registry[P, R any] struct {
	byName map[string]*Descriptor[P, R]
	order  []*Descriptor[P, R]
}

func NewRegistry[P, R any]() *Registry[P, R] {
	return &Registry[P, R]{byName: make(map[string]*Descriptor[P, R])}
}

// Register adds d, panicking on an empty or duplicate name — both are
// programming errors in the registering package, not runtime input.
func (r *Registry[P, R]) Register(d *Descriptor[P, R]) {
	if d.Name == "" {
		panic("reducer: registering a descriptor without a name")
	}
	if _, dup := r.byName[d.Name]; dup {
		panic(fmt.Sprintf("reducer: duplicate descriptor %q", d.Name))
	}
	r.byName[d.Name] = d
	r.order = append(r.order, d)
}

// Get returns the descriptor named name, or nil.
func (r *Registry[P, R]) Get(name string) *Descriptor[P, R] { return r.byName[name] }

// List returns the descriptors in registration order.
func (r *Registry[P, R]) List() []*Descriptor[P, R] {
	out := make([]*Descriptor[P, R], len(r.order))
	copy(out, r.order)
	return out
}
