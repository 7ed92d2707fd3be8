package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"sdpolicy/internal/cluster"
	"sdpolicy/internal/job"
	"sdpolicy/internal/swf"
)

// TracePrefix marks trace-backed workload names: a registered SWF
// trace is addressable everywhere a generator preset is — point wire
// forms, cache keys, the /v1/workloads API — as "trace:<digest>".
const TracePrefix = "trace:"

// IsTraceRef reports whether name addresses a registered trace rather
// than a named generator.
func IsTraceRef(name string) bool {
	return len(name) > len(TracePrefix) && name[:len(TracePrefix)] == TracePrefix
}

// TraceDigest extracts the digest from a trace ref; "" if name is not
// one.
func TraceDigest(name string) string {
	if !IsTraceRef(name) {
		return ""
	}
	return name[len(TracePrefix):]
}

// traceDigestVersion versions the digest preimage: bump it whenever
// FromTrace's normalisation changes observable job streams, so stale
// refs miss instead of silently resolving to different content.
const traceDigestVersion = "sdpolicy-trace-v1"

// FromTrace compiles an SWF log into an immutable validated Spec named
// by its deterministic content digest. Normalisation: statuses are
// irrelevant to the simulator and ignored beyond record filtering;
// negative submits with a preceding-job/think-time dependency resolve
// to the predecessor's completion plus the think time; remaining
// unusable records are dropped; submits are stably sorted and shifted
// so the stream starts at 0. The digest covers the normalised machine
// and job stream — not the raw bytes — so the same logical trace
// reached through different headers or field orderings is one cache
// entry, while any content difference is a different ref. The machine
// comes from the header comments (MaxNodes/MaxProcs/CoresPerNode); a
// trace declaring neither gets one single-core node per processor.
func FromTrace(data []byte) (*Spec, string, error) {
	recs, hdr, err := swf.ParseWithHeader(bytes.NewReader(data))
	if err != nil {
		return nil, "", err
	}
	if len(recs) == 0 {
		return nil, "", fmt.Errorf("workload: trace has no job records")
	}

	// Cores per node: the header, then the 1-core-per-proc fallback.
	cpn := hdr.CoresPerNode
	if cpn <= 0 && hdr.MaxNodes > 0 && hdr.MaxProcs >= hdr.MaxNodes {
		cpn = hdr.MaxProcs / hdr.MaxNodes
	}
	if cpn <= 0 {
		cpn = 1
	}

	// Dependent submits: a negative SubmitTime with PrecedingJob +
	// ThinkTime set means "this much after the predecessor finished"
	// (SWF definition). Resolve against the predecessor's record; an
	// unresolvable dependency leaves the record unusable and ToJobs
	// drops it.
	byNumber := make(map[int64]*swf.Record, len(recs))
	for i := range recs {
		byNumber[recs[i].JobNumber] = &recs[i]
	}
	for i := range recs {
		r := &recs[i]
		if r.Status < -1 || r.Status > 5 {
			r.Status = -1
		}
		if r.SubmitTime >= 0 || r.PrecedingJob <= 0 || r.ThinkTime < 0 {
			continue
		}
		if prev, ok := byNumber[r.PrecedingJob]; ok && prev.SubmitTime >= 0 {
			end := prev.SubmitTime + r.ThinkTime
			if prev.WaitTime > 0 {
				end += prev.WaitTime
			}
			if prev.RunTime > 0 {
				end += prev.RunTime
			}
			r.SubmitTime = end
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].SubmitTime < recs[j].SubmitTime })

	jobs := swf.ToJobs(recs, cpn, job.Malleable)
	if len(jobs) == 0 {
		return nil, "", fmt.Errorf("workload: trace has no usable job records")
	}
	// Monotonic submits starting at 0, dense ids.
	base := jobs[0].Submit
	for i := range jobs {
		jobs[i].Submit -= base
	}

	nodes := hdr.MaxNodes
	if nodes <= 0 && hdr.MaxProcs > 0 {
		nodes = (hdr.MaxProcs + cpn - 1) / cpn
	}
	for i := range jobs {
		if jobs[i].ReqNodes > nodes {
			nodes = jobs[i].ReqNodes
		}
	}

	spec := &Spec{
		Cluster: cluster.Config{Nodes: nodes, Sockets: 1, CoresPerSocket: cpn},
		Jobs:    jobs,
	}
	spec.Name = TracePrefix + digestSpec(spec)
	if err := spec.Validate(); err != nil {
		return nil, "", fmt.Errorf("workload: compiled trace invalid: %w", err)
	}
	return spec, TraceDigest(spec.Name), nil
}

// digestSpec hashes the normalised content that determines simulation
// behaviour. The Name is excluded (it is derived from this digest).
func digestSpec(s *Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", traceDigestVersion)
	fmt.Fprintf(h, "cluster %d %d %d\n", s.Cluster.Nodes, s.Cluster.Sockets, s.Cluster.CoresPerSocket)
	for i := range s.Jobs {
		j := &s.Jobs[i]
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n",
			j.ID, j.Submit, j.ReqTime, j.ActualTime, int64(j.ReqNodes),
			int64(j.TasksPerNode), int64(j.Kind))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TraceInfo describes one registered trace for listings.
type TraceInfo struct {
	Digest string `json:"digest"`
	Ref    string `json:"ref"`
	Source string `json:"source,omitempty"`
	Jobs   int    `json:"jobs"`
	Nodes  int    `json:"nodes"`
	Cores  int    `json:"cores"`
}

// TraceRegistry maps content digests to compiled trace Specs. Both
// tiers hold one: sdexp/sdserve register traces at startup (-trace,
// -trace-dir), and campaign fan-out resolves trace points by digest —
// a worker that was not given the trace fails the point with an
// unknown-digest error instead of guessing.
type TraceRegistry struct {
	mu    sync.RWMutex
	specs map[string]*Spec
	infos map[string]TraceInfo
}

// Traces is the process-wide trace registry backing the Shared
// generation cache's trace refs.
var Traces = &TraceRegistry{}

// Register compiles the SWF bytes and registers the Spec under its
// digest, returning the info record. Registration is idempotent: the
// same content registers once regardless of source label (the first
// source wins).
func (t *TraceRegistry) Register(data []byte, source string) (TraceInfo, error) {
	spec, digest, err := FromTrace(data)
	if err != nil {
		return TraceInfo{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if info, ok := t.infos[digest]; ok {
		return info, nil
	}
	if t.specs == nil {
		t.specs = make(map[string]*Spec)
		t.infos = make(map[string]TraceInfo)
	}
	info := TraceInfo{
		Digest: digest,
		Ref:    TracePrefix + digest,
		Source: source,
		Jobs:   len(spec.Jobs),
		Nodes:  spec.Cluster.Nodes,
		Cores:  spec.Cluster.TotalCores(),
	}
	t.specs[digest] = spec
	t.infos[digest] = info
	return info, nil
}

// Get returns the registered Spec for the digest.
func (t *TraceRegistry) Get(digest string) (*Spec, error) {
	t.mu.RLock()
	spec := t.specs[digest]
	t.mu.RUnlock()
	if spec == nil {
		return nil, fmt.Errorf("workload: unknown trace digest %q (register the SWF with -trace / -trace-dir on every tier)", digest)
	}
	return spec, nil
}

// List returns the registered traces sorted by digest.
func (t *TraceRegistry) List() []TraceInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TraceInfo, 0, len(t.infos))
	for _, info := range t.infos {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Info returns the info record for the digest.
func (t *TraceRegistry) Info(digest string) (TraceInfo, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	info, ok := t.infos[digest]
	return info, ok
}
