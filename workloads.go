package sdpolicy

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sdpolicy/internal/workload"
)

// TraceInfo describes one registered SWF trace: its content digest,
// the "trace:<digest>" ref it is addressable under, and the compiled
// stream's shape.
type TraceInfo = workload.TraceInfo

// TraceRef is the "trace:" name prefix marking trace-backed workloads.
const TraceRef = workload.TracePrefix

// IsTraceRef reports whether name addresses a registered trace
// ("trace:<digest>") rather than a generator preset.
func IsTraceRef(name string) bool { return workload.IsTraceRef(name) }

// DerivationOpSpec describes one derivation op for API listings: its
// wire name and typed fields with ranges.
type DerivationOpSpec = workload.DerivationOpSpec

// DerivationField is one parameter of a DerivationOpSpec.
type DerivationField = workload.DerivationField

// DerivationOps returns the full derivation-op schema served by
// GET /v1/workloads.
func DerivationOps() []DerivationOpSpec { return workload.DerivationOps() }

// RegisterTrace compiles SWF bytes into an immutable workload Spec and
// registers it in the process-wide trace registry under its content
// digest; the returned info carries the "trace:<digest>" ref usable
// anywhere a preset name is (NewWorkload, Points, the HTTP wire
// forms). Machine geometry comes from the trace's header comments
// (MaxNodes/MaxProcs/CoresPerNode); traces declaring neither get one
// single-core node per processor. Registration is idempotent by
// content. source is a display label (typically the file path).
func RegisterTrace(data []byte, source string) (TraceInfo, error) {
	info, err := workload.Traces.Register(data, source)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("%w: %w", err, ErrBadInput)
	}
	return info, nil
}

// RegisterTraceFile reads and registers one SWF file.
func RegisterTraceFile(path string) (TraceInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TraceInfo{}, err
	}
	info, err := RegisterTrace(data, path)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	return info, nil
}

// RegisterTraceDir registers every *.swf file directly under dir, in
// sorted order, returning the info records in registration order.
func RegisterTraceDir(dir string) ([]TraceInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.swf"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	infos := make([]TraceInfo, 0, len(paths))
	for _, p := range paths {
		info, err := RegisterTraceFile(p)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// RegisteredTraces lists every registered trace sorted by digest.
func RegisteredTraces() []TraceInfo { return workload.Traces.List() }

// TraceByRef returns the info record for a "trace:<digest>" ref.
func TraceByRef(ref string) (TraceInfo, bool) {
	if !IsTraceRef(ref) {
		return TraceInfo{}, false
	}
	return workload.Traces.Info(strings.TrimPrefix(ref, TraceRef))
}

// WorkloadNames lists the generator preset ids in Table 1 order.
func WorkloadNames() []string { return workload.Names() }
