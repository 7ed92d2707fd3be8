package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sdpolicy/internal/swf"
)

// traceSample is a small SWF log exercising the normalisation paths:
// an explicit machine header, a dependent submit (job 3 arrives 50s of
// think time after job 1 completes), an out-of-range status, and an
// unusable record (zero runtime) that must be dropped.
const traceSample = `; MaxNodes: 4
; MaxProcs: 16
; Computer: test
1 0 5 100 -1 -1 -1 8 200 -1 1 -1 -1 -1 1 1 -1 -1
2 30 -1 60 -1 -1 -1 4 90 -1 99 -1 -1 -1 1 1 -1 -1
3 -1 -1 40 -1 -1 -1 4 40 -1 1 -1 -1 -1 1 1 1 50
4 10 -1 0 -1 -1 -1 4 10 -1 1 -1 -1 -1 1 1 -1 -1
`

func TestFromTraceCompiles(t *testing.T) {
	spec, digest, err := FromTrace([]byte(traceSample))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != TracePrefix+digest {
		t.Fatalf("spec name %q does not carry digest %q", spec.Name, digest)
	}
	if !IsTraceRef(spec.Name) || TraceDigest(spec.Name) != digest {
		t.Fatalf("ref helpers disagree: %q / %q", spec.Name, digest)
	}
	// MaxProcs 16 over MaxNodes 4 = 4 cores/node.
	if spec.Cluster.Nodes != 4 || spec.Cluster.TotalCores() != 16 {
		t.Fatalf("geometry: %+v", spec.Cluster)
	}
	// Job 4 (zero runtime) is dropped; 3 jobs survive.
	if len(spec.Jobs) != 3 {
		t.Fatalf("jobs %d, want 3: %+v", len(spec.Jobs), spec.Jobs)
	}
	// Job 3's dependent submit resolves to job 1's completion (submit 0 +
	// wait 5 + run 100) plus 50s think time = 155; the stream is already
	// anchored at 0 so no shift applies.
	if spec.Jobs[0].Submit != 0 || spec.Jobs[1].Submit != 30 || spec.Jobs[2].Submit != 155 {
		t.Fatalf("submits: %d %d %d", spec.Jobs[0].Submit, spec.Jobs[1].Submit, spec.Jobs[2].Submit)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromTraceDeterministic(t *testing.T) {
	a, da, err := FromTrace([]byte(traceSample))
	if err != nil {
		t.Fatal(err)
	}
	b, db, err := FromTrace([]byte(traceSample))
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digest not deterministic: %q vs %q", da, db)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("compiled specs differ across identical compilations")
	}
	// A different header geometry changes observable content, so it
	// must change the digest: the ref is a content address, not a file
	// address.
	wider := strings.Replace(traceSample, "; MaxNodes: 4", "; MaxNodes: 8", 1)
	c, dc, err := FromTrace([]byte(wider))
	if err != nil {
		t.Fatal(err)
	}
	if dc == da {
		t.Fatal("header geometry did not change the digest")
	}
	if c.Cluster.Nodes != 8 {
		t.Fatalf("header ignored: %+v", c.Cluster)
	}
}

func TestFromTraceShiftsSubmitsToZero(t *testing.T) {
	shifted := strings.ReplaceAll(traceSample, "1 0 5 100", "1 1000 5 100")
	shifted = strings.ReplaceAll(shifted, "2 30 -1 60", "2 1030 -1 60")
	shifted = strings.ReplaceAll(shifted, "4 10 -1 0", "4 1010 -1 0")
	spec, _, err := FromTrace([]byte(shifted))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Jobs[0].Submit != 0 {
		t.Fatalf("stream not anchored at 0: first submit %d", spec.Jobs[0].Submit)
	}
}

func TestFromTraceRejectsEmpty(t *testing.T) {
	if _, _, err := FromTrace([]byte("; header only\n")); err == nil {
		t.Fatal("empty trace accepted")
	}
	// Records exist but none are usable.
	unusable := "1 0 -1 0 -1 -1 -1 4 10 -1 1 -1 -1 -1 1 1 -1 -1\n"
	if _, _, err := FromTrace([]byte(unusable)); err == nil {
		t.Fatal("trace with no usable records accepted")
	}
}

func TestTraceRegistry(t *testing.T) {
	reg := &TraceRegistry{}
	info, err := reg.Register([]byte(traceSample), "first.swf")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ref != TracePrefix+info.Digest || info.Jobs != 3 {
		t.Fatalf("info: %+v", info)
	}
	// Idempotent by content: a second registration under another label
	// returns the first record.
	again, err := reg.Register([]byte(traceSample), "second.swf")
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "first.swf" {
		t.Fatalf("re-registration rewrote the source: %+v", again)
	}
	if got := reg.List(); len(got) != 1 || got[0].Digest != info.Digest {
		t.Fatalf("list: %+v", got)
	}
	if _, err := reg.Get(info.Digest); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("deadbeefdeadbeef"); err == nil {
		t.Fatal("unknown digest resolved")
	}
}

func TestCacheResolvesTraceRefs(t *testing.T) {
	info, err := Traces.Register([]byte(traceSample), "cache-test.swf")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	spec, err := c.Get(info.Ref, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Trace content ignores the generation parameters entirely.
	if spec.Name != info.Ref || len(spec.Jobs) != info.Jobs {
		t.Fatalf("resolved spec: %q %d jobs", spec.Name, len(spec.Jobs))
	}
	if hits, gens := c.Stats(); hits != 1 || gens != 0 {
		t.Fatalf("trace resolution should count as a hit: hits %d gens %d", hits, gens)
	}
	if _, err := c.Get(TracePrefix+"0000000000000000", 1, 1); err == nil {
		t.Fatal("unknown trace digest resolved through the cache")
	}
}

// FuzzFromTrace compiles arbitrary bytes as an SWF log. It must not
// panic; a compiled spec must be valid under a deterministic digest,
// and the spec written back in sdgen's form (explicit Nodes and
// CoresPerNode headers) must compile to the same digest. The seed is
// testdata/sample.swf.
func FuzzFromTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, digest, err := FromTrace(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("compiled spec invalid: %v", err)
		}
		if _, again, err := FromTrace(data); err != nil || again != digest {
			t.Fatalf("recompile: digest %q, err %v; want %q", again, err, digest)
		}
		cpn := spec.Cluster.CoresPerNode()
		var buf bytes.Buffer
		header := fmt.Sprintf("Nodes: %d\nCoresPerNode: %d", spec.Cluster.Nodes, cpn)
		if err := swf.Write(&buf, header, swf.FromJobs(spec.Jobs, cpn)); err != nil {
			t.Fatal(err)
		}
		if _, rewritten, err := FromTrace(buf.Bytes()); err != nil || rewritten != digest {
			t.Fatalf("sdgen form: digest %q, err %v; want %q\n%s", rewritten, err, digest, buf.Bytes())
		}
	})
}
