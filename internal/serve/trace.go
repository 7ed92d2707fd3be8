package serve

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"time"

	"sdpolicy/internal/journal"
)

// Campaign-scoped tracing. Every campaign gets an ID — client-supplied
// via the X-Campaign-ID header, else generated — that is echoed on the
// response and stamped into the structured log lines on every node that
// touches the campaign: each shard a coordinator creates on a worker is
// named <campaign ID>.<suffix> (shardID). With the create option
// "trace": true the stream additionally carries a "trace" frame, just
// before the terminal frame, summarizing where the campaign's
// wall-clock went: one span per shard attempt (which peer, how many
// points, start/end offsets, how many times the shard had been
// requeued before this attempt) plus a per-peer rollup.

// newCampaignID returns a fresh random campaign ID (16 hex chars).
func newCampaignID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// time-derived fallback keeps campaigns traceable regardless.
		return "c" + hex.EncodeToString([]byte(time.Now().Format("150405.000")))
	}
	return hex.EncodeToString(b[:])
}

// canonicalCampaignID validates a client-supplied ID, falling back to a
// generated one when the header is absent or unusable. Accepted IDs are
// those that name a journal (journal.ValidateID): 1..64 chars drawn
// from [A-Za-z0-9._-], enough for UUIDs, ULIDs and CI job names, and
// safe to embed in logs, headers and label values.
func canonicalCampaignID(supplied string) string {
	if journal.ValidateID(supplied) != nil {
		return newCampaignID()
	}
	return supplied
}

// ShardSpan is one shard attempt in a campaign trace: which peer ran
// it, how many points it carried, when it started and ended relative to
// the campaign, and how many times the shard had been requeued before
// this attempt (its steal count). A failed attempt carries the error.
type ShardSpan struct {
	Peer    string  `json:"peer"`
	Points  int     `json:"points"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Steals  int     `json:"steals,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// PeerTrace is the per-peer rollup of a campaign trace.
type PeerTrace struct {
	Peer   string  `json:"peer"`
	Shards int     `json:"shards"`
	Points int     `json:"points"`
	BusyMS float64 `json:"busy_ms"`
	Errors int     `json:"errors"`
}

// TraceFrame is the payload of a traced campaign's "trace" frame (SSE
// event "trace" / NDJSON line with "trace":true), appended with its seq
// immediately before the terminal frame.
type TraceFrame struct {
	Trace      bool        `json:"trace"`
	CampaignID string      `json:"campaign_id"`
	DurationMS float64     `json:"duration_ms"`
	Points     int         `json:"points"`
	Shards     []ShardSpan `json:"shards,omitempty"`
	Peers      []PeerTrace `json:"peers,omitempty"`
}

// traceRecorder accumulates shard spans for one campaign. A nil
// recorder is valid and records nothing, so untraced campaigns pay a
// single nil check per shard. One goroutine records, the campaign's
// runner (coordinator.run's loop, or the local run), and frame reads
// only after that runner has returned.
type traceRecorder struct {
	start time.Time
	spans []ShardSpan
}

func newTraceRecorder() *traceRecorder { return &traceRecorder{start: time.Now()} }

// record adds one shard attempt. begin is the attempt's own start time;
// offsets are computed against the campaign start.
func (tr *traceRecorder) record(peer string, points, steals int, begin time.Time, err error) {
	if tr == nil {
		return
	}
	span := ShardSpan{
		Peer:    peer,
		Points:  points,
		StartMS: float64(begin.Sub(tr.start).Microseconds()) / 1000,
		EndMS:   float64(time.Since(tr.start).Microseconds()) / 1000,
		Steals:  steals,
	}
	if err != nil {
		span.Error = err.Error()
	}
	tr.spans = append(tr.spans, span)
}

// frame snapshots the recorder into the terminal trace frame: spans
// sorted by start offset, peers rolled up and sorted by name.
func (tr *traceRecorder) frame(campaignID string, points int) TraceFrame {
	f := TraceFrame{Trace: true, CampaignID: campaignID, Points: points}
	if tr == nil {
		return f
	}
	f.DurationMS = float64(time.Since(tr.start).Microseconds()) / 1000
	f.Shards = append([]ShardSpan(nil), tr.spans...)
	sort.SliceStable(f.Shards, func(i, j int) bool { return f.Shards[i].StartMS < f.Shards[j].StartMS })
	byPeer := make(map[string]*PeerTrace)
	for _, s := range f.Shards {
		pt := byPeer[s.Peer]
		if pt == nil {
			pt = &PeerTrace{Peer: s.Peer}
			byPeer[s.Peer] = pt
		}
		pt.Shards++
		pt.Points += s.Points
		pt.BusyMS += s.EndMS - s.StartMS
		if s.Error != "" {
			pt.Errors++
		}
	}
	names := make([]string, 0, len(byPeer))
	for n := range byPeer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f.Peers = append(f.Peers, *byPeer[n])
	}
	return f
}
