package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"ldis/internal/exp"
	"ldis/internal/obs"
	"ldis/internal/trace"
)

// Retry-After seconds for the two back-pressure responses: shed load
// clears on the order of a queue slot, a draining server needs a
// restart behind it.
const (
	retryAfterShed  = 5
	retryAfterDrain = 30
)

// route is one v1 API endpoint: the single source of truth that both
// registers the mux pattern and documents the endpoint in
// /v1/openapi.json, so the served spec can never drift from the
// routing table.
type route struct {
	method  string
	path    string // mux pattern under /v1 (may contain {id} wildcards)
	summary string
	handler http.HandlerFunc
}

// routes returns the complete v1 API surface.
func (s *Server) routes() []route {
	return []route{
		{"GET", "/v1/healthz", "liveness and queue occupancy; status \"draining\" tells balancers to stop routing here", s.handleHealth},
		{"GET", "/v1/openapi.json", "this document: the machine-readable v1 route table", s.handleOpenAPI},
		{"GET", "/v1/experiments", "registered experiment ids and descriptions", s.handleExperiments},
		{"POST", "/v1/jobs", "submit a job spec; 202 on admit, 409 on live duplicate, 429/503 under pressure", s.handleSubmit},
		{"GET", "/v1/jobs", "all jobs in submission order", s.handleJobList},
		{"GET", "/v1/jobs/{id}", "one job's state", s.handleJobStatus},
		{"GET", "/v1/jobs/{id}/result", "stream rendered tables; ?wait=1 long-polls to a terminal state", s.handleJobResult},
		{"GET", "/v1/jobs/{id}/manifest", "the job's validated run manifest", s.handleJobManifest},
		{"POST", "/v1/traces", "upload one binary trace; strict decode with corruption diagnosis", s.handleTraceUpload},
		{"GET", "/v1/traces/{id}", "a stored trace's metadata", s.handleTraceInfo},
	}
}

// Handler assembles the routed API behind the hardening middleware
// chain (outermost first: request-id/log, panic recovery, path guard,
// body limit, per-request deadline). Every resource lives under /v1/;
// any other path is a structured 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.method+" "+rt.path, rt.handler)
	}
	mux.HandleFunc("/", s.handleNotFound)
	var h http.Handler = mux
	h = s.withDeadline(h)
	h = s.withBodyLimit(h)
	h = s.withPathGuard(h)
	h = s.withRecovery(h)
	h = s.withRequestID(h)
	return h
}

// handleOpenAPI serves the machine-readable v1 route table as a
// minimal OpenAPI 3.0 document built from the same routes slice the
// mux is wired from.
func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	paths := map[string]map[string]any{}
	for _, rt := range s.routes() {
		p := paths[rt.path]
		if p == nil {
			p = map[string]any{}
			paths[rt.path] = p
		}
		p[strings.ToLower(rt.method)] = map[string]any{
			"summary":   rt.summary,
			"responses": map[string]any{"default": map[string]any{"description": "see summary"}},
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":   "ldisd cache-analysis service",
			"version": "v1",
		},
		"paths": paths,
	})
}

// handleNotFound answers everything outside the v1 route table with
// the structured JSON 404. Every resource lives under /v1/; the
// unversioned spellings are unknown paths like any other.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, r, http.StatusNotFound, apiError{Error: "unknown path " + r.URL.Path})
}

// handleHealth reports liveness and queue occupancy; "draining" tells
// load balancers to stop routing here.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	queued, running, done, failed := s.store.counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status, "queued": queued, "running": running,
		"done": done, "failed": failed, "queue_depth": s.cfg.QueueDepth,
	})
}

// handleExperiments lists the registered experiment ids — the valid
// values of a job spec's experiments field.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		About string `json:"about"`
	}
	var out []entry
	for _, id := range exp.IDs() {
		about, _ := exp.About(id)
		out = append(out, entry{ID: id, About: about})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSubmit admits one job: strict spec decode, full-problem-list
// validation, then the bounded queue. 429 + Retry-After sheds load
// when the queue is full; 503 + Retry-After refuses work while
// draining; 409 points at a live equivalent job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, r, code, apiError{Error: err.Error()})
		return
	}
	if err := spec.Validate(&s.cfg); err != nil {
		writeError(w, r, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	j, fresh, err := s.Submit(spec, requestID(r))
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, r, http.StatusServiceUnavailable,
			apiError{Error: err.Error(), RetryAfter: retryAfterDrain})
	case errors.Is(err, ErrQueueFull):
		writeError(w, r, http.StatusTooManyRequests,
			apiError{Error: err.Error(), RetryAfter: retryAfterShed})
	case err != nil:
		var conflict *ConflictError
		if errors.As(err, &conflict) {
			writeError(w, r, http.StatusConflict, apiError{Error: err.Error()})
			return
		}
		writeError(w, r, http.StatusInternalServerError, apiError{Error: err.Error()})
	case fresh:
		writeJSON(w, http.StatusAccepted, j.status())
	default:
		// Idempotent resubmission of a live or completed job.
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleJobList returns every job in submission order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	out := []JobStatus{}
	for _, j := range s.store.list() {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

// jobFromPath resolves the {id} path segment, rejecting malformed ids
// before they touch the store.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		writeError(w, r, http.StatusBadRequest, apiError{Error: fmt.Sprintf("malformed job id %q", id)})
		return nil, false
	}
	j, ok := s.store.get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, apiError{Error: "unknown job " + id})
		return nil, false
	}
	return j, true
}

// handleJobStatus reports one job's state.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobResult streams the job's rendered tables. Each experiment's
// output is flushed as soon as it completes; with ?wait=1 the handler
// long-polls (bounded by the request deadline) until the job reaches a
// terminal state. Every response — complete, partial, or failed —
// carries the X-Ldisd-Status / X-Ldisd-Error trailers and a final
// status line, so a truncated or failed stream is never mistakable
// for a clean result.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	w.Header().Set("Trailer", "X-Ldisd-Status, X-Ldisd-Error")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	next := 0
	for {
		fresh, state, errMsg, changed := j.progress(next)
		for _, res := range fresh {
			io.WriteString(w, res.Text)
			next++
		}
		if len(fresh) > 0 {
			flush()
		}
		if state.terminal() {
			finishResult(w, j, state, errMsg)
			return
		}
		if !wait {
			finishResult(w, j, state, "job still "+string(state)+"; poll again or use ?wait=1")
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			finishResult(w, j, state, "request deadline before job finished; poll again")
			return
		}
	}
}

// finishResult writes the result stream's trailer and status line.
func finishResult(w http.ResponseWriter, j *Job, state JobState, errMsg string) {
	if errMsg != "" {
		fmt.Fprintf(w, "# ldisd: job %s %s: %s\n", j.ID, state, errMsg)
	} else {
		fmt.Fprintf(w, "# ldisd: job %s %s\n", j.ID, state)
	}
	w.Header().Set("X-Ldisd-Status", string(state))
	w.Header().Set("X-Ldisd-Error", errMsg)
}

// handleJobManifest serves the per-job run manifest through the
// validating parser, so a half-written file reads as an error rather
// than as truth.
func (s *Server) handleJobManifest(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	m, err := obs.ReadManifest(filepath.Join(j.dir, obs.ManifestFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeError(w, r, http.StatusNotFound, apiError{Error: "no manifest yet for job " + j.ID})
			return
		}
		writeError(w, r, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleTraceUpload validates and stores one binary trace. The decode
// is strict: a corrupt upload is refused with the corruption's byte
// offset and record index — the hardened decoder's diagnosis — rather
// than stored and discovered mid-job.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, r, code, apiError{Error: "reading upload: " + err.Error()})
		return
	}
	accs, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		e := apiError{Error: err.Error()}
		var ce *trace.CorruptError
		if errors.As(err, &ce) {
			e.Corrupt = &corruptInfo{Offset: ce.Offset, Record: ce.Record, Reason: ce.Reason}
		}
		writeError(w, r, http.StatusBadRequest, e)
		return
	}
	id := "t" + fnvHex(data)
	path := s.tracePath(id)
	if _, statErr := os.Stat(path); statErr != nil {
		// Write-then-rename so a crash mid-store can never leave a
		// half-written trace under a valid id.
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			writeError(w, r, http.StatusInternalServerError, apiError{Error: err.Error(), Retryable: true})
			return
		}
		if err := os.Rename(tmp, path); err != nil {
			writeError(w, r, http.StatusInternalServerError, apiError{Error: err.Error(), Retryable: true})
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id": id, "records": len(accs), "bytes": len(data),
	})
}

// handleTraceInfo reports a stored trace's metadata.
func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !traceIDPattern.MatchString(id) {
		writeError(w, r, http.StatusBadRequest, apiError{Error: fmt.Sprintf("malformed trace id %q", id)})
		return
	}
	f, err := os.Open(s.tracePath(id))
	if err != nil {
		writeError(w, r, http.StatusNotFound, apiError{Error: "unknown trace " + id})
		return
	}
	defer f.Close()
	br, err := trace.NewBatchReader(f)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	st, _ := f.Stat()
	var size int64
	if st != nil {
		size = st.Size()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "records": br.Count(), "bytes": size,
	})
}
