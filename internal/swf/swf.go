// Package swf reads and writes the Standard Workload Format of the
// Parallel Workloads Archive (Feitelson), the trace format the paper's
// workloads 3 and 4 come from. Synthetic generators emit SWF so real logs
// (RICC-2010, CEA-Curie-2011) can be dropped in unchanged.
//
// An SWF line has 18 whitespace-separated integer fields; lines starting
// with ';' are header comments. Unknown values are -1.
package swf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sdpolicy/internal/job"
)

// Record is one raw SWF line. Field names follow the SWF definition.
type Record struct {
	JobNumber    int64
	SubmitTime   int64
	WaitTime     int64
	RunTime      int64
	AllocProcs   int64
	AvgCPUTime   int64
	UsedMemory   int64
	ReqProcs     int64
	ReqTime      int64
	ReqMemory    int64
	Status       int64
	UserID       int64
	GroupID      int64
	Executable   int64
	QueueNumber  int64
	PartitionNum int64
	PrecedingJob int64
	ThinkTime    int64
}

const numFields = 18

// Header carries the machine-geometry comment fields of an SWF log.
// Zero values mean the trace did not declare the field; the archive
// convention is "; MaxNodes: 1152"-style lines, and sdgen additionally
// emits "Nodes:"/"CoresPerNode:" which parse to the same place.
type Header struct {
	// MaxNodes is the machine's node count (archive "MaxNodes", sdgen
	// "Nodes").
	MaxNodes int
	// MaxProcs is the machine's processor count ("MaxProcs").
	MaxProcs int
	// CoresPerNode is sdgen's explicit geometry; archive traces leave it
	// 0 and readers derive MaxProcs/MaxNodes instead.
	CoresPerNode int
}

// ParseWithHeader reads all records from r, skipping blank lines, and
// extracts the machine geometry declared in "; Key: value" header
// comments. Unknown header keys and malformed values are ignored —
// headers are advisory in the archive, never an error.
func ParseWithHeader(r io.Reader) ([]Record, Header, error) {
	var out []Record
	var hdr Header
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			parseHeaderLine(line, &hdr)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != numFields {
			return nil, Header{}, fmt.Errorf("swf: line %d: %d fields, want %d", lineNo, len(fields), numFields)
		}
		var vals [numFields]int64
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, Header{}, fmt.Errorf("swf: line %d field %d: %v", lineNo, i+1, err)
			}
			vals[i] = v
		}
		out = append(out, Record{
			JobNumber: vals[0], SubmitTime: vals[1], WaitTime: vals[2],
			RunTime: vals[3], AllocProcs: vals[4], AvgCPUTime: vals[5],
			UsedMemory: vals[6], ReqProcs: vals[7], ReqTime: vals[8],
			ReqMemory: vals[9], Status: vals[10], UserID: vals[11],
			GroupID: vals[12], Executable: vals[13], QueueNumber: vals[14],
			PartitionNum: vals[15], PrecedingJob: vals[16], ThinkTime: vals[17],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, Header{}, fmt.Errorf("swf: %v", err)
	}
	return out, hdr, nil
}

// parseHeaderLine extracts a recognised geometry key from one ";"
// comment line into hdr.
func parseHeaderLine(line string, hdr *Header) {
	body := strings.TrimSpace(strings.TrimLeft(line, "; "))
	key, val, ok := strings.Cut(body, ":")
	if !ok {
		return
	}
	// Archive headers put free text after the number ("; MaxNodes: 1152
	// nodes"); take the first field only.
	f := strings.Fields(strings.TrimSpace(val))
	if len(f) == 0 {
		return
	}
	n, err := strconv.Atoi(f[0])
	if err != nil || n <= 0 {
		return
	}
	// First value wins: "MaxNodes" (the archive key) and "Nodes" (the
	// sdgen key) alias the same field, and a later duplicate or alias
	// must not override an earlier explicit value.
	switch strings.TrimSpace(key) {
	case "MaxNodes", "Nodes":
		if hdr.MaxNodes == 0 {
			hdr.MaxNodes = n
		}
	case "MaxProcs":
		if hdr.MaxProcs == 0 {
			hdr.MaxProcs = n
		}
	case "CoresPerNode":
		if hdr.CoresPerNode == 0 {
			hdr.CoresPerNode = n
		}
	}
}

// Write emits records in SWF order with a minimal header.
func Write(w io.Writer, header string, recs []Record) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		for _, line := range strings.Split(strings.TrimRight(header, "\n"), "\n") {
			if _, err := fmt.Fprintf(bw, "; %s\n", line); err != nil {
				return err
			}
		}
	}
	for _, r := range recs {
		_, err := fmt.Fprintf(bw, "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
			r.JobNumber, r.SubmitTime, r.WaitTime, r.RunTime, r.AllocProcs,
			r.AvgCPUTime, r.UsedMemory, r.ReqProcs, r.ReqTime, r.ReqMemory,
			r.Status, r.UserID, r.GroupID, r.Executable, r.QueueNumber,
			r.PartitionNum, r.PrecedingJob, r.ThinkTime)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ToJobs converts records to simulator jobs for a machine with the given
// cores per node. Processor requests round up to whole nodes
// (select/linear). Records without a usable runtime or processor count
// are skipped; actual runtime is clamped to the request. kind is assigned
// to every job.
func ToJobs(recs []Record, coresPerNode int, kind job.Kind) []job.Job {
	if coresPerNode <= 0 {
		panic(fmt.Sprintf("swf: non-positive cores per node %d", coresPerNode))
	}
	jobs := make([]job.Job, 0, len(recs))
	id := job.ID(1)
	for _, r := range recs {
		procs := r.ReqProcs
		if procs <= 0 {
			procs = r.AllocProcs
		}
		if procs <= 0 || r.RunTime <= 0 || r.SubmitTime < 0 {
			continue
		}
		req := r.ReqTime
		if req <= 0 {
			req = r.RunTime
		}
		nodes := int((procs + int64(coresPerNode) - 1) / int64(coresPerNode))
		j := job.Job{
			ID:           id,
			Submit:       r.SubmitTime,
			ReqTime:      req,
			ActualTime:   r.RunTime,
			ReqNodes:     nodes,
			TasksPerNode: 1,
			Kind:         kind,
		}
		j.Clamp()
		if j.Validate() != nil {
			continue
		}
		jobs = append(jobs, j)
		id++
	}
	return jobs
}

// FromJobs converts simulator jobs back to SWF records (whole-node
// processor counts) so generated workloads can be saved and inspected.
func FromJobs(jobs []job.Job, coresPerNode int) []Record {
	recs := make([]Record, len(jobs))
	for i, j := range jobs {
		recs[i] = Record{
			JobNumber:  int64(j.ID),
			SubmitTime: j.Submit,
			WaitTime:   -1,
			RunTime:    j.ActualTime,
			AllocProcs: -1,
			AvgCPUTime: -1, UsedMemory: -1,
			ReqProcs:  int64(j.ReqNodes * coresPerNode),
			ReqTime:   j.ReqTime,
			ReqMemory: -1, Status: 1, UserID: -1, GroupID: -1,
			Executable: int64(j.App), QueueNumber: int64(j.Kind),
			PartitionNum: -1, PrecedingJob: -1, ThinkTime: -1,
		}
	}
	return recs
}
