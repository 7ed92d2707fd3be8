package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"sdpolicy"
	"sdpolicy/internal/journal"
	"sdpolicy/internal/reducer"
)

// The experiments plane: every figure- and table-level experiment of
// the registry (sdpolicy.Experiments) as a resource mirroring
// /v1/campaigns. POST /v1/experiments names an experiment and its
// parameters; the server expands it into a campaign (journaled,
// coordinator-fanned-out, cancellable — everything a plain campaign
// gets) and streams the *reduced* view on GET /v1/experiments/{id}:
// incremental rows as the reducer folds result frames, then one
// terminal summary frame. At fleet scale a Table 1 ships ~rows to the
// client instead of ~50k point frames.
//
// The row stream is a derived view of the campaign's journaled frames:
// every attach re-folds them from the beginning in their (fixed) append
// order, so row seqs are stable across attaches and the ?from= cursor
// resumes a row stream exactly like the campaign cursor resumes a
// frame stream.
//
// Stream frames (SSE event name / NDJSON line):
//
//	row       {"seq":N,"row":{...}}                    incremental
//	done      {"seq":N,"done":true,"experiment":...,
//	           "summary":<typed result>}               terminal
//	error     {"seq":N,"error":{code,message,campaign_id}}  terminal
//	cancelled {"seq":N,"cancelled":true}               terminal
//	shutdown  {"shutdown":true,...}  transport-level, no seq
//
// The terminal frame is always emitted, even for a cursor past the end
// of the row stream, so a stream always closes explicitly.

// ExperimentInfo describes one registry experiment in the GET
// /v1/experiments listing.
type ExperimentInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title,omitempty"`
	Description string `json:"description,omitempty"`
	// Reports marks experiments whose reduction needs per-job reports;
	// their campaigns carry one in every result frame.
	Reports bool                `json:"reports,omitempty"`
	Params  []reducer.ParamSpec `json:"params"`
}

// ExperimentList is the GET /v1/experiments reply.
type ExperimentList struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// CreateExperimentRequest is the POST /v1/experiments body. Params are
// decoded per the experiment's declared parameter specs; omitted
// parameters take their defaults, unknown ones are a 400.
type CreateExperimentRequest struct {
	Experiment string                     `json:"experiment"`
	Params     map[string]json.RawMessage `json:"params,omitempty"`
}

// CreateExperimentResponse is the 201 body; the Location header carries
// the resource path.
type CreateExperimentResponse struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	// Points is the size of the backing campaign (0 for generation-only
	// experiments, whose summary needs no simulation).
	Points int `json:"points"`
}

// handleExperiments is the collection endpoint: GET lists the registry,
// POST creates an experiment resource.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleExperimentList(w)
	case http.MethodPost:
		s.handleExperimentCreate(w, r)
	default:
		writeMethodNotAllowed(w, "GET, POST", "",
			errors.New("use GET to list experiments or POST to create one"))
	}
}

// handleExperimentList describes the registry. It answers on standbys
// too: the listing is static and useful for discovering the API before
// failover completes.
func (s *Server) handleExperimentList(w http.ResponseWriter) {
	descriptors := sdpolicy.Experiments().List()
	list := ExperimentList{Experiments: make([]ExperimentInfo, 0, len(descriptors))}
	for _, d := range descriptors {
		params := d.Params
		if params == nil {
			params = []reducer.ParamSpec{}
		}
		list.Experiments = append(list.Experiments, ExperimentInfo{
			Name:        d.Name,
			Title:       d.Title,
			Description: d.Description,
			Reports:     d.NeedsReports,
			Params:      params,
		})
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleExperimentCreate(w http.ResponseWriter, r *http.Request) {
	if !s.active.Load() {
		writeError(w, http.StatusServiceUnavailable, errStandby)
		return
	}
	var req CreateExperimentRequest
	if !s.decode(w, r, &req, nil) {
		return
	}
	if req.Experiment == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing experiment"))
		return
	}
	d, params, err := resolveExperiment(req.Experiment, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	inst, err := d.New(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("experiment %s: %w", d.Name, err))
		return
	}
	// The journal holds the resolved parameters, so recovery re-resolves
	// exactly the values this run used even if the registry's defaults
	// change between restarts. A value resolved from JSON, or a default,
	// always encodes.
	rawParams := make(map[string]json.RawMessage, len(params))
	for name, v := range params {
		rawParams[name], _ = json.Marshal(v)
	}
	id := canonicalCampaignID(r.Header.Get("X-Campaign-ID"))
	cs, err := newCampaignState(id, inst.Points(), nil, d.NeedsReports, false)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("experiment %s: %w", d.Name, err))
		return
	}
	cs.Experiment, cs.Params, cs.expParams = d.Name, rawParams, params
	s.create(w, cs, "/v1/experiments", CreateExperimentResponse{ID: id, Experiment: d.Name, Points: len(cs.points)})
}

// resolveExperiment looks up a registry experiment and resolves its
// parameters from their JSON encodings, as a create body or a journaled
// create record holds them.
func resolveExperiment(name string, raw map[string]json.RawMessage) (*sdpolicy.ExperimentDescriptor, reducer.Params, error) {
	d := sdpolicy.Experiments().Get(name)
	if d == nil {
		return nil, nil, fmt.Errorf("unknown experiment %q; GET /v1/experiments lists the registry", name)
	}
	params, err := reducer.ResolveJSON(d.Params, raw)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment %s: %w", d.Name, err)
	}
	return d, params, nil
}

// lookupExperiment resolves {id} like lookupCampaign and additionally
// requires the campaign to be experiment-backed: a plain campaign is
// 404 on the experiments plane (it has no reducer to stream).
func (s *Server) lookupExperiment(w http.ResponseWriter, id string) *campaignState {
	cs := s.lookupCampaign(w, id)
	if cs == nil {
		return nil
	}
	if cs.Experiment == "" {
		writeCampaignError(w, http.StatusNotFound, id,
			fmt.Errorf("campaign %s is not an experiment; attach with GET /v1/campaigns/%s", id, id))
		return nil
	}
	return cs
}

// handleExperimentByID dispatches GET (attach to the reduced stream)
// and DELETE (cancel the backing campaign).
func (s *Server) handleExperimentByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		s.handleExperimentAttach(w, r, id)
	case http.MethodDelete:
		if s.lookupExperiment(w, id) == nil {
			return
		}
		s.handleCampaignCancel(w, r, id)
	default:
		writeMethodNotAllowed(w, "GET, DELETE", id,
			errors.New("use GET to attach or DELETE to cancel"))
	}
}

// expStream folds one attach's view of an experiment campaign: a fresh
// reducer instance consuming the campaign's frames in append order,
// emitting derived row frames with their own seq sequence. Because the
// frame order is fixed once appended (and journaled), every attach
// assigns identical seqs to identical rows — which is what makes the
// ?from= cursor sound across reattaches and server restarts.
type expStream struct {
	cs   *campaignState
	inst reducer.Instance[sdpolicy.Point, *sdpolicy.Result]
	st   *streamWriter
	seq  uint64 // last row/terminal seq assigned
	from uint64 // cursor: emit only frames with seq > from
}

// emit assigns the next seq and writes the frame unless the cursor
// already covers it. force bypasses the cursor for terminal frames.
func (es *expStream) emit(event string, payload func(seq uint64) any, force bool) {
	es.seq++
	if es.seq > es.from || force {
		es.st.event(event, payload(es.seq))
	}
}

// fail ends the stream with an in-band error frame (the reducer itself
// failed — a registry bug or a frame the fold cannot digest).
func (es *expStream) fail(err error) {
	es.emit("error", func(seq uint64) any {
		return errorFrame{seq, ErrorDetail{
			Code:       errorCode(http.StatusInternalServerError),
			Message:    err.Error(),
			CampaignID: es.cs.id,
		}}
	}, true)
}

// fold consumes one campaign frame, returning true when the stream is
// complete (a terminal frame was emitted).
func (es *expStream) fold(f frame) bool {
	switch f.event {
	case journal.KindResult:
		v, err := resultFrame(f.data)
		if err == nil && len(v.Report) > 0 {
			err = v.Result.SetReportJSON(v.Report)
		}
		if err != nil {
			es.fail(fmt.Errorf("result frame %d: %w", f.seq, err))
			return true
		}
		rows, err := es.inst.Fold(*v.Index, v.Result)
		if err != nil {
			es.fail(err)
			return true
		}
		for _, row := range rows {
			r := row
			es.emit("row", func(seq uint64) any {
				return struct {
					Seq uint64 `json:"seq"`
					Row any    `json:"row"`
				}{seq, r}
			}, false)
		}
	case journal.KindDone:
		summary, err := es.inst.Summary()
		if err != nil {
			es.fail(err)
			return true
		}
		es.emit("done", func(seq uint64) any {
			return struct {
				Seq        uint64 `json:"seq"`
				Done       bool   `json:"done"`
				Experiment string `json:"experiment"`
				Summary    any    `json:"summary"`
			}{seq, true, es.cs.Experiment, summary}
		}, true)
		return true
	case journal.KindCancelled:
		es.emit("cancelled", func(seq uint64) any { return cancelledFrame{seq, true} }, true)
		return true
	case journal.KindError:
		detail, ok := errorFrameDetail(f.data)
		if !ok {
			detail = ErrorDetail{Code: errorCode(http.StatusInternalServerError), CampaignID: es.cs.id}
		}
		es.emit("error", func(seq uint64) any { return errorFrame{seq, detail} }, true)
		return true
	}
	return false
}

// handleExperimentAttach streams the reduced view: rows after the
// ?from= cursor as the campaign's frames fold, then the terminal frame.
// Unlike the campaign attach it always consumes the underlying frames
// from the beginning — the reducer needs every result — and applies the
// cursor to the derived row stream it produces.
func (s *Server) handleExperimentAttach(w http.ResponseWriter, r *http.Request, id string) {
	from, sse, ok := attachParams(w, r, id)
	if !ok {
		return
	}
	cs := s.lookupExperiment(w, id)
	if cs == nil {
		return
	}
	d := sdpolicy.Experiments().Get(cs.Experiment)
	if d == nil {
		writeCampaignError(w, http.StatusInternalServerError, id,
			fmt.Errorf("experiment %q vanished from the registry", cs.Experiment))
		return
	}
	inst, err := d.New(cs.expParams)
	if err != nil {
		writeCampaignError(w, http.StatusInternalServerError, id, err)
		return
	}
	mExperimentAttaches.Inc()
	mCampaignAttaches.Inc()
	w.Header().Set("X-Campaign-ID", id)
	es := &expStream{cs: cs, inst: inst, st: newStreamWriter(w, sse), from: from}
	s.follow(r.Context(), es.st, cs, 0, es.fold)
	es.st.flush()
}
