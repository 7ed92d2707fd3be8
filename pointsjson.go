package sdpolicy

import (
	"bytes"
	"strconv"
)

// ReadPointsObject reads the front of data in one pass when it is the
// start of what json.Marshal writes for a struct whose first field is
// a non-empty []Point under "points": `{"points":[`, then each point
// exactly as Point.MarshalJSON writes it, comma-separated, then `]`.
// That rules out whitespace, keys out of order or repeated, an
// omitempty field present at its zero value (or a point without its
// workload, scale and seed, which every Point it writes has), numbers
// in any spelling but json.Marshal's, and strings that are not
// printable ASCII without '"', '\\', '<', '>' or '&'. It returns the
// specs encoding/json decodes from those bytes, each point's bytes
// (sub-slices of data: for a spec PointsFromSpecs accepts, they are
// its point's MarshalJSON encoding) and the bytes after the `]`; ok is
// false, and the rest meaningless, for any other input.
func ReadPointsObject(data []byte) (specs []PointSpec, wire [][]byte, rest []byte, ok bool) {
	s := resultReader{b: data}
	if !s.lit(`{"points":[`) {
		return nil, nil, nil, false
	}
	// No string the reader accepts holds a '"', so in a list it accepts
	// this key starts every point and nothing else. Each point takes at
	// least len(minPoint) bytes, so no input sizes more points than
	// the longest list it could hold.
	n := min(bytes.Count(s.b, []byte(`{"workload":`)), len(s.b)/len(minPoint))
	specs, wire = make([]PointSpec, 0, n), make([][]byte, 0, n)
	for {
		start := len(data) - len(s.b)
		var p PointSpec
		if !s.point(&p) {
			return nil, nil, nil, false
		}
		end := len(data) - len(s.b)
		specs = append(specs, p)
		wire = append(wire, data[start:end:end])
		if s.lit("]") {
			return specs, wire, s.b, true
		}
		if !s.lit(",") {
			return nil, nil, nil, false
		}
	}
}

// minPoint is the shortest point the reader accepts.
const minPoint = `{"workload":"x","scale":1,"seed":1,"options":{}}`

// point consumes one point as Point.MarshalJSON writes it.
func (s *resultReader) point(p *PointSpec) bool {
	if !(s.lit(`{"workload":`) && s.str(&p.Workload) && p.Workload != "" &&
		s.lit(`,"scale":`) && s.float(&p.Scale) && p.Scale != 0 &&
		s.lit(`,"seed":`) && s.uint64(&p.Seed) && p.Seed != 0) {
		return false
	}
	if s.lit(`,"malleable_fraction":`) {
		p.MalleableFraction = new(float64)
		if !s.float(p.MalleableFraction) {
			return false
		}
	}
	if s.lit(`,"derivations":[`) {
		for {
			var d Derivation
			if !s.derivation(&d) {
				return false
			}
			p.Derivations = append(p.Derivations, d)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return false
			}
		}
	}
	o, n := &p.Options, 0
	return s.lit(`,"options":{`) &&
		s.optStr(`"policy":`, &n, &o.Policy) &&
		s.optFloat(`"max_slowdown":`, &n, &o.MaxSlowdown) &&
		s.optStr(`"dynamic_cutoff":`, &n, &o.DynamicCutoff) &&
		s.optStr(`"model":`, &n, &o.Model) &&
		s.optFloat(`"sharing_factor":`, &n, &o.SharingFactor) &&
		s.optInt(`"max_mates":`, &n, &o.MaxMates) &&
		s.optInt(`"candidate_cap":`, &n, &o.CandidateCap) &&
		s.optInt(`"backfill_depth":`, &n, &o.BackfillDepth) &&
		s.optStr(`"backfill":`, &n, &o.Backfill) &&
		s.optTrue(`"include_free_nodes":`, &n, &o.IncludeFreeNodes) &&
		s.optInt64(`"drom_overhead":`, &n, &o.DROMOverhead) &&
		s.optFloat(`"oversub_penalty":`, &n, &o.OversubPenalty) &&
		s.lit("}}")
}

// derivation consumes one derivation as json.Marshal writes it.
func (s *resultReader) derivation(d *Derivation) bool {
	n := 2
	return s.lit(`{"op":`) && s.str(&d.Op) &&
		s.lit(`,"fraction":`) && s.float(&d.Fraction) &&
		s.optStr(`"feature":`, &n, &d.Feature) &&
		s.optFloat(`"factor":`, &n, &d.Factor) &&
		s.optInt64(`"shift":`, &n, &d.Shift) &&
		s.optInt64(`"burst":`, &n, &d.Burst) &&
		s.optStr(`"class":`, &n, &d.Class) &&
		s.lit("}")
}

// key consumes the key k of an object that has n fields so far, with
// the ',' before it unless it is the first, and counts it; it reports
// false, consuming nothing, when k does not come next.
func (s *resultReader) key(k string, n *int) bool {
	b := s.b
	if *n > 0 && !s.lit(",") || !s.lit(k) {
		s.b = b
		return false
	}
	*n++
	return true
}

// The opt methods read an omitempty field: they report true when its
// key k does not come next, or when it does and its value reads and is
// not the zero value json.Marshal would have left out.

func (s *resultReader) optStr(k string, n *int, v *string) bool {
	return !s.key(k, n) || s.str(v) && *v != ""
}

func (s *resultReader) optFloat(k string, n *int, v *float64) bool {
	return !s.key(k, n) || s.float(v) && *v != 0
}

func (s *resultReader) optInt(k string, n *int, v *int) bool {
	return !s.key(k, n) || s.int(v) && *v != 0
}

func (s *resultReader) optInt64(k string, n *int, v *int64) bool {
	return !s.key(k, n) || s.int64(v) && *v != 0
}

func (s *resultReader) optTrue(k string, n *int, v *bool) bool {
	if !s.key(k, n) {
		return true
	}
	*v = true
	return s.lit("true")
}

// uint64 consumes a uint64 in json.Marshal's spelling.
func (s *resultReader) uint64(v *uint64) bool {
	tok := s.number()
	n, err := strconv.ParseUint(string(tok), 10, 64)
	*v = n
	return err == nil && bytes.Equal(strconv.AppendUint(s.spell[:0], n, 10), tok)
}
