package sdpolicy

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// plainResult is Result without its methods, so encoding/json decodes
// it field by field.
type plainResult Result

// UnmarshalJSON decodes a result. Input that is exactly what
// json.Marshal writes for a Result whose strings are printable ASCII
// without '"', '\\', '<', '>' or '&' (as the golden results' are) is
// read in one pass, and the result keeps a copy of it as its encoding,
// so relaying it encodes nothing (AppendJSON). Any other input is
// decoded by encoding/json, as it would be without this method, and
// leaves the result without an encoding. The per-job report is never
// touched: it is not part of the JSON.
func (r *Result) UnmarshalJSON(data []byte) error {
	var v Result
	if readResult(&v, data) {
		v.report = r.report
		v.encoded = bytes.Clone(data)
		*r = v
		return nil
	}
	r.encoded = nil
	return json.Unmarshal(data, (*plainResult)(r))
}

// readResult reads data into r if data is the bytes json.Marshal
// writes for a Result: every field in declaration order, nothing
// between tokens, each string as str reads it and each number spelled
// as json.Marshal spells its value. It reports
// false for anything else, and r is then partly written.
func readResult(r *Result, data []byte) bool {
	s := resultReader{b: data}
	return s.lit(`{"workload":`) && s.str(&r.Workload) &&
		s.lit(`,"policy":`) && s.str(&r.Policy) &&
		s.lit(`,"jobs":`) && s.int(&r.Jobs) &&
		s.lit(`,"makespan":`) && s.int64(&r.Makespan) &&
		s.lit(`,"avg_response":`) && s.float(&r.AvgResponse) &&
		s.lit(`,"avg_wait":`) && s.float(&r.AvgWait) &&
		s.lit(`,"avg_slowdown":`) && s.float(&r.AvgSlowdown) &&
		s.lit(`,"avg_bounded_slowdown":`) && s.float(&r.AvgBoundedSlowdown) &&
		s.lit(`,"p95_slowdown":`) && s.float(&r.P95Slowdown) &&
		s.lit(`,"energy_kwh":`) && s.float(&r.EnergyKWh) &&
		s.lit(`,"malleable_starts":`) && s.int(&r.MalleableStarts) &&
		s.lit(`,"mates":`) && s.int(&r.Mates) &&
		s.lit(`}`) && len(s.b) == 0
}

// resultReader consumes the encoding json.Marshal writes for a Result
// (readResult) or a list of points (ReadPointsObject) from the front
// of b.
type resultReader struct {
	b []byte
	// spell holds a number as json.Marshal spells it, for comparison.
	spell [32]byte
}

// lit consumes the literal l.
func (s *resultReader) lit(l string) bool {
	if len(s.b) < len(l) || string(s.b[:len(l)]) != l {
		return false
	}
	s.b = s.b[len(l):]
	return true
}

// str consumes a string of printable ASCII without '"', '\\', '<',
// '>' or '&', which json.Marshal writes byte for byte as it is.
func (s *resultReader) str(v *string) bool {
	if len(s.b) == 0 || s.b[0] != '"' {
		return false
	}
	for i := 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			*v = string(s.b[1:i])
			s.b = s.b[i+1:]
			return true
		case c < ' ' || c > '~' || c == '\\' || c == '<' || c == '>' || c == '&':
			return false
		}
	}
	return false
}

// number consumes the token up to the next ',' or '}', the bytes that
// follow every number in a Result's or a point's encoding.
func (s *resultReader) number() []byte {
	i := 0
	for i < len(s.b) && s.b[i] != ',' && s.b[i] != '}' {
		i++
	}
	tok := s.b[:i]
	s.b = s.b[i:]
	return tok
}

func (s *resultReader) int(v *int) bool {
	n, ok := s.integer(strconv.IntSize)
	*v = int(n)
	return ok
}

func (s *resultReader) int64(v *int64) bool {
	n, ok := s.integer(64)
	*v = n
	return ok
}

// integer consumes an integer of the given width in json.Marshal's
// spelling: the token must parse, and format back to itself, which
// rules out signs, leading zeros, "-0", fractions and exponents.
func (s *resultReader) integer(bits int) (int64, bool) {
	tok := s.number()
	n, err := strconv.ParseInt(string(tok), 10, bits)
	return n, err == nil && bytes.Equal(strconv.AppendInt(s.spell[:0], n, 10), tok)
}

// float consumes a float64 in json.Marshal's spelling: the token must
// parse to a finite value that formats back to itself.
func (s *resultReader) float(v *float64) bool {
	tok := s.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		return false
	}
	*v = f
	return bytes.Equal(appendFloat(s.spell[:0], f), tok)
}

// appendFloat appends a finite f as json.Marshal writes a float64:
// the shortest decimal that round-trips, with an exponent only below
// 1e-6 or from 1e21 on, and no zero padding in the exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
