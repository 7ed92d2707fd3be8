package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"sdpolicy"
	"sdpolicy/internal/reducer"
)

// WorkloadInfo describes one addressable workload in the GET
// /v1/workloads listing: a named generator preset (Source "generator",
// parameterised by scale and seed) or a registered SWF trace (Source
// "trace", content-addressed by digest). Jobs/Nodes/Cores are filled
// where they are intrinsic — always for traces, and on the detail
// endpoint for generators once scale/seed pin them down.
type WorkloadInfo struct {
	Ref    string `json:"ref"`
	Source string `json:"source"`
	Digest string `json:"digest,omitempty"`
	// File is the registration label of a trace (typically its path).
	File   string              `json:"file,omitempty"`
	Jobs   int                 `json:"jobs,omitempty"`
	Nodes  int                 `json:"nodes,omitempty"`
	Cores  int                 `json:"cores,omitempty"`
	Params []reducer.ParamSpec `json:"params,omitempty"`
}

// WorkloadList is the GET /v1/workloads reply: every addressable
// workload plus the full derivation-op schema accepted in PointSpec
// derivation chains.
type WorkloadList struct {
	Workloads   []WorkloadInfo              `json:"workloads"`
	Derivations []sdpolicy.DerivationOpSpec `json:"derivations"`
}

// generatorParams are the parameter specs every generator preset
// accepts; traces take neither (content is pinned by the digest).
func generatorParams() []reducer.ParamSpec {
	return []reducer.ParamSpec{
		{Name: "scale", Type: reducer.TypeFloat, Default: 1.0,
			Description: "machine and job-count scale factor (0,1]"},
		{Name: "seed", Type: reducer.TypeUint, Default: uint64(1),
			Description: "generator seed"},
	}
}

// handleWorkloads serves the GET /v1/workloads listing. Like the
// experiment listing it answers on standbys: the resource is static
// discovery data, useful before failover completes.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet, "", errors.New("use GET to list workloads"))
		return
	}
	names := sdpolicy.WorkloadNames()
	list := WorkloadList{
		Workloads:   make([]WorkloadInfo, 0, len(names)),
		Derivations: sdpolicy.DerivationOps(),
	}
	for _, name := range names {
		list.Workloads = append(list.Workloads, WorkloadInfo{
			Ref:    name,
			Source: "generator",
			Params: generatorParams(),
		})
	}
	for _, tr := range sdpolicy.RegisteredTraces() {
		list.Workloads = append(list.Workloads, WorkloadInfo{
			Ref:    tr.Ref,
			Source: "trace",
			Digest: tr.Digest,
			File:   tr.Source,
			Jobs:   tr.Jobs,
			Nodes:  tr.Nodes,
			Cores:  tr.Cores,
		})
	}
	writeJSON(w, http.StatusOK, list)
}

// handleWorkloadByRef serves GET /v1/workloads/{ref}: one workload's
// resolved metadata. Generators accept ?scale= and ?seed= (defaulting
// to 1) since their shape depends on both; traces ignore them.
func (s *Server) handleWorkloadByRef(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, http.MethodGet, "", errors.New("use GET to describe a workload"))
		return
	}
	ref := r.PathValue("ref")
	if sdpolicy.IsTraceRef(ref) {
		tr, ok := sdpolicy.TraceByRef(ref)
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("unknown trace %q; register it with -trace / -trace-dir", ref))
			return
		}
		writeJSON(w, http.StatusOK, WorkloadInfo{
			Ref:    tr.Ref,
			Source: "trace",
			Digest: tr.Digest,
			File:   tr.Source,
			Jobs:   tr.Jobs,
			Nodes:  tr.Nodes,
			Cores:  tr.Cores,
		})
		return
	}
	known := false
	for _, name := range sdpolicy.WorkloadNames() {
		if name == ref {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown workload %q; GET /v1/workloads lists the registry", ref))
		return
	}
	scale, seed := 1.0, uint64(1)
	if v := r.URL.Query().Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad scale %q: %w", v, err))
			return
		}
		scale = f
	}
	if v := r.URL.Query().Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q: %w", v, err))
			return
		}
		seed = n
	}
	wl, err := sdpolicy.NewWorkload(ref, scale, seed)
	if err != nil {
		writeError(w, statusFor(r.Context(), err), err)
		return
	}
	writeJSON(w, http.StatusOK, WorkloadInfo{
		Ref:    ref,
		Source: "generator",
		Jobs:   wl.Jobs(),
		Nodes:  wl.Nodes(),
		Cores:  wl.Cores(),
		Params: generatorParams(),
	})
}
