package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/workload"
)

// Backend is what the job API fronts: one board pool (this package's
// Server) or a fleet of them (fleet.Server). Everything the two daemons
// answer differently is behind it; decoding, admission, status codes,
// headers and error bodies are NewAPI's and so identical on both.
type Backend interface {
	// PinError returns the 400 message for a board or node pin this
	// backend cannot honour, or "".
	PinError(req *SubmitRequest) string
	// Submit queues the admitted request; ctx governs the job's lifetime.
	Submit(ctx context.Context, cancel context.CancelFunc, req *SubmitRequest) (SubmitResponse, error)
	// SubmitStatus maps a Submit error only this backend returns to its
	// HTTP status; 0 leaves the error to the common table.
	SubmitStatus(err error) int
	// QueueFull is the 429 message when no queue has room.
	QueueFull() string
	// JobStatus returns the body of GET (or, with cancel set, DELETE)
	// /v1/jobs/{id}, or ErrJobExpired or ErrNoSuchJob.
	JobStatus(id string, cancel bool) (any, error)
	// Boards returns the body of GET /v1/boards.
	Boards() any
	// Health returns the body of GET /healthz, less the version.
	Health() Health
	WriteMetrics(w io.Writer) error
}

// api serves the routes every vfpgad front-end shares.
type api struct {
	b   Backend
	adm *Admission
}

// NewAPI returns a mux serving the job API over b, admitting through adm
// and reporting version. A front-end with routes of its own registers
// them on the result.
func NewAPI(b Backend, adm *Admission, version string) *http.ServeMux {
	a := &api{b: b, adm: adm}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.handleJob)
	mux.HandleFunc("GET /v1/boards", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, b.Boards())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := b.Health()
		h.Version = version
		WriteJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = b.WriteMetrics(w)
	})
	return mux
}

// jsonContentType is every JSON response's Content-Type value. One slice
// serves them all: Header.Set would make a new one per response.
var jsonContentType = []string{"application/json"}

// WriteJSON writes v as the JSON body of a response: compact, one line,
// encoded once straight into it. A reader who wants it indented pipes it
// through jq.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// maxSubmitBytes caps a POST /v1/jobs body; the builtin specs encode to
// well under 200 bytes.
const maxSubmitBytes = 1 << 20

// maxTenantBytes caps a tenant name. An accepted name is a key in the
// admission and service-time tables and a label on every per-tenant
// /metrics series for the life of the process.
const maxTenantBytes = 128

// tenantError returns the 400 message for a tenant name the API does not
// accept, or "".
func tenantError(name string) string {
	switch {
	case name == "":
		return "tenant is required"
	case len(name) > maxTenantBytes:
		return fmt.Sprintf("tenant name over %d bytes", maxTenantBytes)
	case strings.ContainsFunc(name, unicode.IsControl):
		return "tenant name contains a control character"
	}
	return ""
}

// decodeSubmit decodes a POST /v1/jobs body into req, strictly, reading
// at most maxSubmitBytes of it.
func decodeSubmit(w http.ResponseWriter, r *http.Request, req *SubmitRequest) error {
	return workload.DecodeStrict(http.MaxBytesReader(w, r.Body, maxSubmitBytes), req)
}

func (a *api) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeSubmit(w, r, &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if msg := tenantError(req.Tenant); msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	if err := req.Workload.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad workload: %v", err)
		return
	}
	if msg := a.b.PinError(&req); msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}

	// One admission decision per request. A fleet shares the bucket
	// across nodes, so a 429's Retry-After is the earliest token
	// fleet-wide — not the local bucket of whichever node would have
	// taken the job.
	if ok, retry := a.adm.Allow(req.Tenant); !ok {
		secs := int(retry / time.Second)
		if retry%time.Second != 0 || secs == 0 {
			secs++ // round up: retrying earlier than the hint just throttles again
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "tenant %q over admission rate", req.Tenant)
		return
	}

	// The job's context outlives the HTTP request: it governs the job's
	// whole lifetime, so a deadline set here still fires while queued.
	ctx, cancel := context.WithCancel(context.Background())
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	resp, err := a.b.Submit(ctx, cancel, &req)
	if err != nil {
		status, msg := a.submitFailure(err)
		if status == http.StatusTooManyRequests {
			a.adm.NoteQueueFull(req.Tenant)
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%s", msg)
		return
	}
	WriteJSON(w, http.StatusAccepted, resp)
}

// submitFailure maps a Submit error to the response status and message.
func (a *api) submitFailure(err error) (int, string) {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, a.b.QueueFull()
	}
	status := a.b.SubmitStatus(err)
	switch {
	case status != 0:
	case errors.Is(err, ErrNoSuchBoard):
		status = http.StatusBadRequest
	case errors.Is(err, ErrBoardQuarantined):
		status = http.StatusConflict
	case errors.Is(err, ErrNoHealthyBoard):
		status = http.StatusServiceUnavailable
	default:
		status = http.StatusInternalServerError
	}
	return status, err.Error()
}

// handleJob serves GET and DELETE /v1/jobs/{id}. Cancellation is
// advisory: a queued job fails when its worker picks it up; a running or
// finished job is unaffected (the simulation is not preemptible mid-run).
func (a *api) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := a.b.JobStatus(r.PathValue("id"), r.Method == http.MethodDelete)
	switch {
	case errors.Is(err, ErrJobExpired):
		writeError(w, http.StatusGone, "%v", err)
	case err != nil:
		writeError(w, http.StatusNotFound, "%v", err)
	default:
		WriteJSON(w, http.StatusOK, st)
	}
}
