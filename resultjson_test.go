package sdpolicy

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sdpolicy/internal/metrics"
)

// goldenResults returns the result of every line of the golden file,
// as the bytes the line holds.
func goldenResults(tb testing.TB) [][]byte { return goldenValues(tb, "result") }

// goldenValues returns the value under key of every line of the golden
// file, as the bytes the line holds.
func goldenValues(tb testing.TB, key string) [][]byte {
	tb.Helper()
	data, err := os.ReadFile("testdata/golden_equivalence.ndjson")
	if err != nil {
		tb.Fatal(err)
	}
	var values [][]byte
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var l map[string]json.RawMessage
		if err := json.Unmarshal(line, &l); err != nil {
			tb.Fatal(err)
		}
		values = append(values, l[key])
	}
	if len(values) != 45 {
		tb.Fatalf("the golden file holds %d lines, want 45", len(values))
	}
	return values
}

// TestGoldenResultsKeepTheirBytes: every result an engine sends
// decodes in one pass and keeps its bytes, so a relay encodes none of
// them again. The golden results are checked as the file holds them
// and as json.Marshal writes them now, so a change to Result's fields
// that the one-pass reader does not follow fails here.
func TestGoldenResultsKeepTheirBytes(t *testing.T) {
	for i, data := range goldenResults(t) {
		var res Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("golden result %d: %v", i, err)
		}
		enc, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{data, enc} {
			var back Result
			if err := back.UnmarshalJSON(b); err != nil {
				t.Fatalf("golden result %d: %v", i, err)
			}
			if !bytes.Equal(back.encoded, b) {
				t.Fatalf("golden result %d keeps %q, want its bytes %s", i, back.encoded, b)
			}
		}
	}
}

// resultTemplate is a result as json.Marshal writes it, with one
// field's value replaced by each seed of FuzzResultJSON.
const resultTemplate = `{"workload":"wl1-cirne","policy":"sd-policy","jobs":500,"makespan":252591,"avg_response":9728.866,"avg_wait":584.136,"avg_slowdown":2.4563579124319626,"avg_bounded_slowdown":1.342602570158703,"p95_slowdown":3.324309329710143,"energy_kwh":1528.4952333333333,"malleable_starts":218,"mates":51}`

// FuzzResultJSON checks Result.UnmarshalJSON against encoding/json's
// decode of the method-less plainResult, each starting from the same
// filled-in result: they must agree on whether the input decodes and
// on every field, and neither may touch the per-job report. A result
// that keeps an encoding keeps a copy of the input, which must be
// json.Marshal's bytes for the fields it decoded to; one that does not
// must drop the encoding it had. The seeds are the golden results and
// the template with one value replaced: floats that json.Marshal
// spells with an exponent or as -0, floats it spells otherwise, ints
// at the edges of their Go width, and strings holding bytes that
// json.Marshal escapes, non-ASCII text and escapes.
func FuzzResultJSON(f *testing.F) {
	for _, data := range goldenResults(f) {
		f.Add(data)
	}
	replace := func(key, value string) []byte {
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(resultTemplate), &res); err != nil {
			f.Fatal(err)
		}
		i := strings.Index(resultTemplate, `"`+key+`":`)
		if _, ok := res[key]; !ok || i < 0 {
			f.Fatalf("the template has no %q", key)
		}
		start := i + len(key) + 3
		return []byte(resultTemplate[:start] + value + resultTemplate[start+len(res[key]):])
	}
	for _, v := range []string{"1e-7", "1e21", "-0", "0", "1e-7 ", "1e-07", "1E21", "1.50", "1.0", "0.0000001",
		"1000000000000000000000", "999999999999999900000", "5e-324", "1.7976931348623157e+308", "1e400", "NaN", "-1"} {
		f.Add(replace("avg_slowdown", v))
	}
	maxInt := uint64(1)<<(strconv.IntSize-1) - 1
	for _, v := range []string{
		strconv.FormatUint(maxInt, 10), strconv.FormatUint(maxInt+1, 10),
		"-" + strconv.FormatUint(maxInt+1, 10), "-" + strconv.FormatUint(maxInt+2, 10),
		"-0", "007", "+1", "1.0", "1e2"} {
		f.Add(replace("jobs", v))
		f.Add(replace("mates", v))
	}
	for _, v := range []string{"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809"} {
		f.Add(replace("makespan", v))
	}
	for _, v := range []string{`"a<b"`, `"a\u003cb"`, `"a&b"`, `"a\u0026b"`, "\"a\u2028b\"", `"a\u2028b"`,
		`"wl-é"`, `"wl-\u00e9"`, `"a\"b"`, `"a\\b"`, `"a\nb"`, `"a\/b"`, "\"a\x7fb\"", "\"\xff\"", `""`, `null`, `1`} {
		f.Add(replace("workload", v))
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"x","Policy":"y"}`))
	f.Add([]byte(resultTemplate[:len(resultTemplate)-1] + `,"mates":52}`))

	base := Result{Workload: "before", Policy: "before", Jobs: 7, Makespan: 7, AvgResponse: 7, AvgWait: 7,
		AvgSlowdown: 7, AvgBoundedSlowdown: 7, P95Slowdown: 7, EnergyKWh: 7, MalleableStarts: 7, Mates: 7}
	base.report.Results = make([]metrics.JobResult, 1)
	base.encoded = []byte("before")
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := base, plainResult(base)
		gotErr, wantErr := got.UnmarshalJSON(data), json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalJSON error %v, encoding/json error %v", gotErr, wantErr)
		}
		g, w := reflect.ValueOf(got), reflect.ValueOf(Result(want))
		for i := 0; i < g.NumField(); i++ {
			field := g.Type().Field(i)
			if !field.IsExported() {
				continue
			}
			gf, wf := g.Field(i), w.Field(i)
			same := gf.Equal(wf)
			if gf.Kind() == reflect.Float64 {
				same = math.Float64bits(gf.Float()) == math.Float64bits(wf.Float())
			}
			if !same {
				t.Fatalf("%s: UnmarshalJSON read %v, encoding/json %v", field.Name, gf, wf)
			}
		}
		if !reflect.DeepEqual(got.report, base.report) {
			t.Fatal("UnmarshalJSON changed the per-job report")
		}
		switch {
		case got.encoded == nil:
		case bytes.Equal(got.encoded, base.encoded):
			t.Fatal("the result kept the encoding it had before the decode")
		case !bytes.Equal(got.encoded, data) || &got.encoded[0] == &data[0]:
			t.Fatalf("the result keeps %q, not a copy of its input", got.encoded)
		default:
			enc, err := json.Marshal(&got)
			if err != nil || !bytes.Equal(enc, got.encoded) {
				t.Fatalf("the result keeps %s, json.Marshal writes %s (%v)", got.encoded, enc, err)
			}
		}
	})
}
