package serve

import "net/http"

// The unified /v1/* error envelope. Every HTTP-level error reply is
//
//	{"error":{"code":"...","message":"...","campaign_id":"..."}}
//
// with a machine-readable code derived from the status: deterministic
// client mistakes are 400 bad_request, an unknown campaign resource is
// 404 not_found, re-creating an existing campaign is 409 conflict, and
// transient refusals (slot exhaustion, shutdown, a standby whose
// campaign plane has not activated) are 429/503 so clients know to
// retry. campaign_id is set on campaign-scoped errors so a client
// juggling several campaigns can attribute the failure without parsing
// the message.
//
// In-band stream frames carry the same ErrorDetail object: in a
// terminal error frame ({"seq":N,"error":{...}}) and in the shutdown
// frame that ends an attach when the server goes away.

// ErrorDetail is the envelope payload.
type ErrorDetail struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	CampaignID string `json:"campaign_id,omitempty"`
}

// ErrorEnvelope is the HTTP error reply body for every /v1/* endpoint.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// errorCode maps an HTTP status to the envelope's stable code string.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media_type"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	}
	return "error"
}

// writeError replies with the unified envelope (no campaign scope).
func writeError(w http.ResponseWriter, status int, err error) {
	writeCampaignError(w, status, "", err)
}

// writeCampaignError replies with the unified envelope, attributing the
// failure to a campaign ID when one is in scope.
func writeCampaignError(w http.ResponseWriter, status int, campaignID string, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorDetail{
		Code:       errorCode(status),
		Message:    err.Error(),
		CampaignID: campaignID,
	}})
}

// writeMethodNotAllowed replies 405 with the envelope and the Allow
// header RFC 9110 requires (a comma-separated method list).
func writeMethodNotAllowed(w http.ResponseWriter, allow, campaignID string, err error) {
	w.Header().Set("Allow", allow)
	writeCampaignError(w, http.StatusMethodNotAllowed, campaignID, err)
}
