package sdpolicy

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"sdpolicy/internal/reducer"
)

// pointsBody is the create body json.Marshal writes for points.
func pointsBody(tb testing.TB, points []Point) []byte {
	tb.Helper()
	b, err := json.Marshal(struct {
		Points []Point `json:"points"`
	}{points})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// fullPoints are points that set every option, apply every derivation
// op, and re-flag malleable fractions 0 and 1.
func fullPoints() []Point {
	opts := Options{Policy: "sd", MaxSlowdown: 10, DynamicCutoff: "avg", Model: "worst", SharingFactor: 0.5,
		MaxMates: 2, CandidateCap: 8, BackfillDepth: 50, Backfill: "easy", IncludeFreeNodes: true,
		DROMOverhead: 3, OversubPenalty: 0.25}
	points := []Point{
		NewDerivedPoint("wl1", 0.1, 7, opts,
			MalleableFractionDerivation(0.5), TagNodesDerivation("bigmem", 0.25),
			RequireFeatureDerivation("bigmem", 0.5), ScaleLoadDerivation(1.5),
			ShiftArrivalsDerivation(3600, 60), AssignQoSDerivation("gold", 0.5)),
		NewPoint("wl2", 1e-7, 18446744073709551615, Options{}),
	}
	for _, frac := range []float64{0, 1} {
		p := NewPoint("wl3", 0.25, 2, Options{Policy: "oversubscribe"})
		p.MalleableFraction = frac
		points = append(points, p)
	}
	return points
}

// checkReadersPath fails unless ReadPointsObject reads body, a points
// object that ends after its list, and keeps each point's bytes as
// wire[i].
func checkReadersPath(t *testing.T, name string, body []byte, wire [][]byte) {
	t.Helper()
	specs, got, rest, ok := ReadPointsObject(body)
	if !ok || string(rest) != "}" || len(specs) != len(wire) {
		t.Fatalf("%s: the reader declines %s", name, body)
	}
	for i := range wire {
		if !bytes.Equal(got[i], wire[i]) {
			t.Fatalf("%s: point %d keeps %s, want %s", name, i, got[i], wire[i])
		}
	}
}

// TestPointsTakeTheReadersPath: every point the system writes a body
// of itself is read in one pass, so a change to a point's layout that
// the reader does not follow fails here instead of silently sending
// every create back to the reflective decoder. Checked: the 45 golden
// points as the golden file spells them (the benchmark's campaign
// bodies), the testdata/sample.swf trace point, points that set every
// field (fullPoints), and the points of every registry experiment at
// its default parameters, each as
// json.Marshal writes a []Point (sdexp -server's bodies; shard bodies
// and journal create records splice the same bytes).
func TestPointsTakeTheReadersPath(t *testing.T) {
	golden := goldenValues(t, "point")
	points := make([]Point, len(golden))
	for i, b := range golden {
		if err := json.Unmarshal(b, &points[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkReadersPath(t, "golden file", []byte(`{"points":[`+string(bytes.Join(golden, []byte(",")))+`]}`), golden)
	checkReadersPath(t, "shortest point", []byte(`{"points":[`+minPoint+`]}`), [][]byte{[]byte(minPoint)})

	info, err := RegisterTraceFile("testdata/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	sample, err := PointsFromSpecs([]PointSpec{{Workload: info.Ref, Options: Options{Policy: "sd", MaxSlowdown: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]Point{"golden": points, "sample trace": sample, "full": fullPoints()}
	for _, d := range Experiments().List() {
		params := reducer.Params{}
		if d.Name == "real_trace" {
			params["trace"] = info.Ref
		}
		inst, err := d.Instance(params)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		sets[d.Name] = inst.Points()
	}
	for name, set := range sets {
		if len(set) == 0 {
			continue
		}
		wire := make([][]byte, len(set))
		for i, p := range set {
			if wire[i], err = p.MarshalJSON(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		checkReadersPath(t, name, pointsBody(t, set), wire)
	}
}

// pointsNearMisses are create bodies one step from a canonical one:
// each still decodes (or fails to) as encoding/json sees it, but is
// not the bytes Point.MarshalJSON writes, so the reader must decline.
var pointsNearMisses = []string{
	`{"points":[{"scale":0.1,"workload":"wl1","seed":1,"options":{}}]}`,
	`{"points":[{"workload": "wl1","scale":0.1,"seed":1,"options":{}}]}`,
	`{"points":[{"workload":"wl1","scale":1.0,"seed":1,"options":{}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":01,"options":{}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"options":{"max_mates":0}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"options":{"max_slowdown":-0}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"options":{"include_free_nodes":false}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"options":{"policy":""}}]}`,
	`{"points":[{"workload":"wl\u0031","scale":0.1,"seed":1,"options":{}}]}`,
	`{"points":[{"workload":"wl<1","scale":0.1,"seed":1,"options":{}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"options":{"policy":"s&d"}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"bogus":1,"options":{}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"options":{"policy":"sd","policy":"sd"}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"derivations":[],"options":{}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"options":{}}]}`,
	`{"points":[{"workload":"wl1","scale":0.1,"seed":1,"options":{}},]}`,
	`{"points":[]}`,
}

// TestReadPointsObjectDeclinesNearMisses: every near miss goes to the
// strict decoder.
func TestReadPointsObjectDeclinesNearMisses(t *testing.T) {
	for _, body := range pointsNearMisses {
		if _, _, _, ok := ReadPointsObject([]byte(body)); ok {
			t.Errorf("the reader accepts %s", body)
		}
	}
}

// FuzzPointsObject checks ReadPointsObject against the strict decoder
// every wire layer uses (DisallowUnknownFields) into the points list.
// Whenever the reader accepts, the decoder must read the same bytes,
// closed, to equal specs (floats bit for bit, so -0 is not 0), the
// kept bytes must be the list's points, and for each spec that
// PointsFromSpecs accepts, MarshalJSON of its point must be the bytes
// kept for it. The seeds are the golden body, fullPoints and the near
// misses.
func FuzzPointsObject(f *testing.F) {
	golden := goldenValues(f, "point")
	f.Add([]byte(`{"points":[` + string(bytes.Join(golden, []byte(","))) + `]}`))
	f.Add(pointsBody(f, fullPoints()))
	for _, body := range pointsNearMisses {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, wire, rest, ok := ReadPointsObject(data)
		if !ok {
			return
		}
		prefix := data[:len(data)-len(rest)]
		if want := `{"points":[` + string(bytes.Join(wire, []byte(","))) + `]`; string(prefix) != want {
			t.Fatalf("the reader kept %s of %s", want, prefix)
		}
		var decoded struct {
			Points []PointSpec `json:"points"`
		}
		dec := json.NewDecoder(bytes.NewReader(append(bytes.Clone(prefix), '}')))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&decoded); err != nil {
			t.Fatalf("the reader accepts %s, the decoder: %v", prefix, err)
		}
		if !sameBits(reflect.ValueOf(specs), reflect.ValueOf(decoded.Points)) {
			t.Fatalf("the reader read %+v, the decoder %+v", specs, decoded.Points)
		}
		for i, spec := range specs {
			if cap(wire[i]) != len(wire[i]) {
				t.Fatalf("point %d: its bytes have room to grow over the input's", i)
			}
			points, err := PointsFromSpecs([]PointSpec{spec})
			if err != nil {
				continue
			}
			if enc, err := points[0].MarshalJSON(); err != nil || !bytes.Equal(enc, wire[i]) {
				t.Fatalf("point %d: kept %s, MarshalJSON writes %s (%v)", i, wire[i], enc, err)
			}
		}
	})
}

// sameBits reports whether a and b are deeply equal, with floats
// compared bit for bit and a nil slice or pointer unequal to any other.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameBits(a.Elem(), b.Elem()))
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
