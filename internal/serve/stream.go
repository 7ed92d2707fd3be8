package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// CampaignShutdown is the transport-level frame that ends an attached
// stream when the serving process begins shutdown (SSE event
// "shutdown"). It carries no seq: the campaign is not over, and a
// client reattaches — elsewhere, after failover — from its cursor.
type CampaignShutdown struct {
	Shutdown bool        `json:"shutdown"`
	Error    ErrorDetail `json:"error"`
}

// attachParams parses an attach request's ?from= cursor and stream
// encoding, replying with the envelope and returning ok=false when
// either is malformed.
func attachParams(w http.ResponseWriter, r *http.Request, id string) (from uint64, sse, ok bool) {
	q := r.URL.Query()
	if v := q.Get("from"); v != "" {
		var err error
		if from, err = strconv.ParseUint(v, 10, 32); err != nil {
			writeCampaignError(w, http.StatusBadRequest, id,
				fmt.Errorf("bad ?from=%q: want a frame sequence number", v))
			return 0, false, false
		}
	}
	sse, err := wantsSSE(r, q.Get("format"))
	if err != nil {
		writeCampaignError(w, http.StatusBadRequest, id, err)
		return 0, false, false
	}
	return from, sse, true
}

// wantsSSE resolves the stream encoding from the explicit ?format=
// (sse or ndjson) or, when absent, the Accept header.
func wantsSSE(r *http.Request, format string) (bool, error) {
	switch format {
	case "sse":
		return true, nil
	case "ndjson":
		return false, nil
	case "":
		return strings.Contains(r.Header.Get("Accept"), "text/event-stream"), nil
	}
	return false, fmt.Errorf("unknown format %q (want sse or ndjson)", format)
}

// follow feeds the campaign's frames from index i to emit, which
// reports whether a frame ended the stream, and waits for appends while
// the campaign runs. The stream is flushed whenever it catches up, so
// frames that pile up between two wake-ups leave in one write; the
// caller flushes once follow returns. A cursor
// already past the end of a finished campaign re-emits its terminal
// frame, so a stream always closes explicitly. A client disconnect ends
// the stream silently; server shutdown flushes what already appended,
// then ends it with a shutdown frame — the journal keeps the campaign
// resumable wherever it lands next.
func (s *Server) follow(ctx context.Context, st *streamWriter, cs *campaignState, i int, emit func(frame) bool) {
	for {
		cs.mu.Lock()
		frames, running, wake := cs.frames, cs.state == campaignRunning, cs.wake
		cs.mu.Unlock()
		if !running && i >= len(frames) {
			emit(frames[len(frames)-1])
			return
		}
		if i < len(frames) {
			for ; i < len(frames); i++ {
				if emit(frames[i]) {
					return
				}
			}
			continue
		}
		st.flush()
		select {
		case <-wake:
		case <-ctx.Done():
			return
		case <-s.shutdown:
			cs.mu.Lock()
			frames = cs.frames
			cs.mu.Unlock()
			for ; i < len(frames); i++ {
				if emit(frames[i]) {
					return
				}
			}
			st.event("shutdown", CampaignShutdown{Shutdown: true, Error: ErrorDetail{
				Code:       errorCode(http.StatusServiceUnavailable),
				Message:    "server shutting down",
				CampaignID: cs.id,
			}})
			return
		}
	}
}

// streamWriter encodes events as SSE or NDJSON; follow flushes them.
type streamWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
	// line is an NDJSON frame and its newline, reused from frame to frame.
	line []byte
}

func newStreamWriter(w http.ResponseWriter, sse bool) *streamWriter {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	// Tell buffering reverse proxies (nginx) not to hold the stream.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	sw := &streamWriter{w: w, fl: fl, sse: sse}
	sw.flush()
	return sw
}

// event marshals and writes one payload; a payload that cannot be
// encoded becomes an error frame in the envelope shape. Write errors are
// deliberately ignored: they mean the client is gone, and the attach
// loop notices through the request context.
func (sw *streamWriter) event(name string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		name = "error"
		b, _ = json.Marshal(ErrorEnvelope{Error: ErrorDetail{
			Code: errorCode(http.StatusInternalServerError), Message: err.Error()}})
	}
	sw.rawEvent(name, b)
}

// rawEvent writes one pre-marshalled payload — a campaign frame, whose
// bytes are fixed at append time (and in the journal) so every attach
// replays them identically — in one Write.
func (sw *streamWriter) rawEvent(name string, data []byte) {
	if sw.sse {
		fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", name, data)
		return
	}
	sw.line = append(append(sw.line[:0], data...), '\n')
	sw.w.Write(sw.line)
}

func (sw *streamWriter) flush() {
	if sw.fl != nil {
		sw.fl.Flush()
	}
}
