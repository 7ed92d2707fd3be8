package swf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"sdpolicy/internal/job"
)

const sample = `; SWF header
; Computer: test
1 0 10 3600 64 -1 -1 64 7200 -1 1 3 4 -1 1 1 -1 -1
2 100 -1 60 -1 -1 -1 16 600 -1 1 3 4 -1 1 1 -1 -1

3 200 -1 100 8 -1 -1 -1 -1 -1 0 3 4 -1 1 1 -1 -1
`

func TestParse(t *testing.T) {
	recs, _, err := ParseWithHeader(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	r := recs[0]
	if r.JobNumber != 1 || r.SubmitTime != 0 || r.RunTime != 3600 ||
		r.ReqProcs != 64 || r.ReqTime != 7200 {
		t.Fatalf("record 0 mismatch: %+v", r)
	}
	if recs[2].ReqProcs != -1 || recs[2].AllocProcs != 8 {
		t.Fatalf("record 2 mismatch: %+v", recs[2])
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := ParseWithHeader(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("short line accepted")
	}
	if _, _, err := ParseWithHeader(strings.NewReader(strings.Replace(sample, "3600", "abc", 1))); err == nil {
		t.Fatal("non-integer field accepted")
	}
}

func TestToJobs(t *testing.T) {
	recs, _, err := ParseWithHeader(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	jobs := ToJobs(recs, 16, job.Malleable)
	if len(jobs) != 3 {
		t.Fatalf("converted %d jobs, want 3", len(jobs))
	}
	// 64 procs on 16-core nodes = 4 nodes
	if jobs[0].ReqNodes != 4 {
		t.Fatalf("job 1 nodes %d, want 4", jobs[0].ReqNodes)
	}
	// 16 procs = 1 node
	if jobs[1].ReqNodes != 1 {
		t.Fatalf("job 2 nodes %d, want 1", jobs[1].ReqNodes)
	}
	// record 3: ReqProcs -1 falls back to AllocProcs 8 => 1 node;
	// ReqTime -1 falls back to RunTime
	if jobs[2].ReqNodes != 1 || jobs[2].ReqTime != 100 {
		t.Fatalf("job 3: %+v", jobs[2])
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.Kind != job.Malleable {
			t.Fatal("kind not applied")
		}
	}
}

func TestToJobsSkipsUnusable(t *testing.T) {
	recs := []Record{
		{JobNumber: 1, SubmitTime: 0, RunTime: 0, ReqProcs: 4, ReqTime: 10},                 // zero runtime
		{JobNumber: 2, SubmitTime: -5, RunTime: 10, ReqProcs: 4, ReqTime: 10},               // negative submit
		{JobNumber: 3, SubmitTime: 0, RunTime: 10, ReqProcs: 0, AllocProcs: 0, ReqTime: 10}, // no procs
		{JobNumber: 4, SubmitTime: 0, RunTime: 10, ReqProcs: 4, ReqTime: 10},                // good
	}
	jobs := ToJobs(recs, 4, job.Rigid)
	if len(jobs) != 1 || jobs[0].ActualTime != 10 {
		t.Fatalf("jobs %+v", jobs)
	}
}

func TestToJobsClampsOverrun(t *testing.T) {
	recs := []Record{{JobNumber: 1, SubmitTime: 0, RunTime: 500, ReqProcs: 4, ReqTime: 100}}
	jobs := ToJobs(recs, 4, job.Rigid)
	if len(jobs) != 1 || jobs[0].ActualTime != 100 {
		t.Fatalf("overrun not clamped: %+v", jobs)
	}
}

func TestRoundTrip(t *testing.T) {
	recs, _, err := ParseWithHeader(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, "generated by test\nsecond line", recs); err != nil {
		t.Fatal(err)
	}
	again, _, err := ParseWithHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(again), len(recs))
	}
	for i := range recs {
		if recs[i] != again[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, recs[i], again[i])
		}
	}
}

func TestParseWithHeader(t *testing.T) {
	in := `; MaxNodes: 20
; MaxProcs: 960 (the comment after the value is ignored)
; CoresPerNode: 48
; Nodes: 999
; Malformed
; BadValue: notanumber
1 0 -1 60 -1 -1 -1 4 60 -1 1 -1 -1 -1 1 1 -1 -1
`
	recs, hdr, err := ParseWithHeader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records: %d", len(recs))
	}
	// MaxNodes and Nodes are aliases; first value wins.
	if hdr.MaxNodes != 20 || hdr.MaxProcs != 960 || hdr.CoresPerNode != 48 {
		t.Fatalf("header: %+v", hdr)
	}
	// Without a header, everything stays zero.
	_, hdr, err = ParseWithHeader(strings.NewReader("1 0 -1 60 -1 -1 -1 4 60 -1 1 -1 -1 -1 1 1 -1 -1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if hdr != (Header{}) {
		t.Fatalf("headerless parse: %+v", hdr)
	}
}

// TestRoundTripProperty drives Write∘Parse over seeded pseudo-random
// records: serialisation must be the identity on every representable
// record, not just the handful the fixed samples cover.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	field := func() int64 {
		if rng.Intn(4) == 0 {
			return -1 // the SWF missing-value sentinel
		}
		return rng.Int63n(1 << 20)
	}
	recs := make([]Record, 200)
	for i := range recs {
		recs[i] = Record{
			JobNumber: int64(i + 1), SubmitTime: field(), WaitTime: field(),
			RunTime: field(), AllocProcs: field(), AvgCPUTime: field(),
			UsedMemory: field(), ReqProcs: field(), ReqTime: field(),
			ReqMemory: field(), Status: rng.Int63n(7) - 1, UserID: field(),
			GroupID: field(), Executable: field(), QueueNumber: field(),
			PartitionNum: field(), PrecedingJob: field(), ThinkTime: field(),
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, "property round trip", recs); err != nil {
		t.Fatal(err)
	}
	again, _, err := ParseWithHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(again), len(recs))
	}
	for i := range recs {
		if recs[i] != again[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, recs[i], again[i])
		}
	}
}

func TestFromJobsRoundTrip(t *testing.T) {
	js := []job.Job{
		{ID: 1, Submit: 5, ReqTime: 100, ActualTime: 80, ReqNodes: 2,
			TasksPerNode: 1, Kind: job.Malleable, App: job.AppSTREAM},
	}
	recs := FromJobs(js, 48)
	if recs[0].ReqProcs != 96 || recs[0].RunTime != 80 {
		t.Fatalf("FromJobs: %+v", recs[0])
	}
	back := ToJobs(recs, 48, job.Malleable)
	if len(back) != 1 || back[0].ReqNodes != 2 || back[0].ActualTime != 80 ||
		back[0].Submit != 5 || back[0].ReqTime != 100 {
		t.Fatalf("round trip: %+v", back)
	}
}
