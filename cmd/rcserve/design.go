package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	rcdelay "repro"
	"repro/internal/wal"
)

// A designSession is one live chip design held server-side as an incremental
// re-timing session: POST /design runs the full levelized analysis once
// through the shared batch engine, POST /design/{id}/edit absorbs ECO edits
// by re-timing only the dirty cone, and GET /design/{id}/slack reads the
// current report. The mutex serializes all access to the session (which is
// single-writer); lifecycle (ids, TTL expiry, LRU eviction) lives in the
// shared ttlStore.
type designSession struct {
	mu    sync.Mutex
	sess  *rcdelay.DesignSession
	edits int
	// wlog is the session's durability log (nil when the server runs
	// without -data-dir): accepted edits are appended under mu, so log
	// order is apply order, and snapshots rotate it. opts remembers the
	// analysis knobs so an eviction-recovery rebuilds the same session.
	wlog *wal.Log
	opts designRequest
}

type designStore = ttlStore[*designSession]

func newDesignStore(cfg storeConfig) *designStore {
	return newTTLStore[*designSession](cfg)
}

// --- HTTP surface -----------------------------------------------------------

// designRequest is the POST /design body: the design deck plus analysis
// knobs. Threshold 0 means 0.5; required <= 0 leaves endpoints without an
// explicit .require card unconstrained; k 0 means 5 critical paths.
type designRequest struct {
	Design    string  `json:"design"`
	Threshold float64 `json:"threshold,omitempty"`
	Required  float64 `json:"required,omitempty"`
	K         int     `json:"k,omitempty"`
}

// designSummaryJSON is the POST /design answer: the id to query plus the
// headline numbers. The full endpoint table lives at /design/{id}/slack.
type designSummaryJSON struct {
	ID        string   `json:"id"`
	Design    string   `json:"design,omitempty"`
	Nets      int      `json:"nets"`
	Stages    int      `json:"stages"`
	Levels    int      `json:"levels"`
	Endpoints int      `json:"endpoints"`
	Threshold float64  `json:"threshold"`
	Gen       uint64   `json:"gen"`
	Edits     int      `json:"edits"`
	WNS       *float64 `json:"wns,omitempty"`
	TNS       float64  `json:"tns"`
	Passes    int      `json:"passes"`
	Unknown   int      `json:"unknown"`
	Fails     int      `json:"fails"`
}

// designSummary snapshots one session's headline numbers under its lock.
func designSummary(e *entry[*designSession]) designSummaryJSON {
	ds := e.val
	ds.mu.Lock()
	defer ds.mu.Unlock()
	r := ds.sess.Report()
	p, u, f := r.CountByVerdict()
	var wns *float64
	if !math.IsInf(r.WNS, 0) { // +Inf: no constrained endpoint
		wns = &r.WNS
	}
	return designSummaryJSON{
		ID: e.id, Design: r.Design,
		Nets: r.Nets, Stages: r.Stages, Levels: r.Levels,
		Endpoints: len(r.Endpoints), Threshold: r.Threshold,
		Gen: ds.sess.Gen(), Edits: ds.edits,
		WNS: wns, TNS: r.TNS,
		Passes: p, Unknown: u, Fails: f,
	}
}

// handleDesignCreate parses a design and mounts an incremental re-timing
// session on it. The initial full analysis rides the flat arena core —
// self-contained, allocation-lean and parallel-schedulable — rather than the
// server's shared batch engine; the engine (and its cross-client memoization
// cache) still serves the /analyze tree-batch endpoint.
func (s *server) handleDesignCreate(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_design_requests_total", 1)
	var req designRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, r, fmt.Sprintf("bad request: %v", err), badRequestStatus(err))
		return
	}
	if req.Design == "" {
		httpError(w, r, "request names no design: set design to a multi-net deck", http.StatusUnprocessableEntity)
		return
	}
	design, err := rcdelay.ParseDesign(req.Design)
	if err != nil {
		httpError(w, r, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	sess, err := rcdelay.NewDesignSession(r.Context(), design, rcdelay.DesignOptions{
		Threshold: req.Threshold,
		Required:  req.Required,
		K:         req.K,
		Obs:       s.obs,
	})
	if err != nil {
		httpError(w, r, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	ent := s.designs.create(&designSession{sess: sess, opts: req})
	defer s.designs.release(ent)
	if err := s.walCreate(ent, design); err != nil {
		s.designs.delete(ent.id)
		httpError(w, r, fmt.Sprintf("durability write failed: %v", err), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusCreated, designSummary(ent))
}

// lookupDesign resolves the path id to a pinned entry — eviction skips
// pinned entries, so the session cannot vanish mid-request; the caller must
// release it. With durability on, a design that was TTL/LRU-evicted from
// memory but still has its WAL on disk is transparently recovered.
func (s *server) lookupDesign(w http.ResponseWriter, r *http.Request) (*entry[*designSession], bool) {
	id := r.PathValue("id")
	e, ok := s.designs.get(id)
	if !ok {
		e, ok = s.recoverDesign(r.Context(), id)
	}
	if !ok {
		httpError(w, r, "unknown or expired design", http.StatusNotFound)
		return nil, false
	}
	return e, true
}

func (s *server) handleDesignInfo(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_design_requests_total", 1)
	if e, ok := s.lookupDesign(w, r); ok {
		defer s.designs.release(e)
		writeJSON(w, http.StatusOK, designSummary(e))
	}
}

// designEditRequest is the POST /design/{id}/edit body: ECO edits applied in
// order, each addressed by net (and node) name.
type designEditRequest struct {
	Edits []rcdelay.DesignEdit `json:"edits"`
}

// designEditResponse reports how much of the design one edit batch dirtied.
// On a failing edit the applied prefix stays in effect (the session keeps a
// consistent propagated state) and error carries the reason.
type designEditResponse struct {
	ID               string   `json:"id"`
	Gen              uint64   `json:"gen"`
	Applied          int      `json:"applied"`
	DirtyNets        int      `json:"dirtyNets"`
	VisitedNets      int      `json:"visitedNets"`
	WNS              *float64 `json:"wns,omitempty"`
	TNS              float64  `json:"tns"`
	InvalidatedPaths []string `json:"invalidatedPaths,omitempty"`
	Error            string   `json:"error,omitempty"`
}

// handleDesignEdit applies ECO edits under the session lock and re-times
// only the dirty cone — the chip-level analogue of the /session edit
// endpoint, with slack instead of characteristic times in the answer.
func (s *server) handleDesignEdit(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_design_requests_total", 1)
	done, ok := admitOr429(w, r, s.designs, r.PathValue("id"))
	if !ok {
		return
	}
	defer done()
	ent, ok := s.lookupDesign(w, r)
	if !ok {
		return
	}
	defer s.designs.release(ent)
	var req designEditRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, r, fmt.Sprintf("bad request: %v", err), badRequestStatus(err))
		return
	}
	if len(req.Edits) == 0 {
		httpError(w, r, "edit request carries no edits", http.StatusUnprocessableEntity)
		return
	}
	if !s.designs.allowEdits(ent, len(req.Edits)) {
		rateLimited(w, r, "design edit rate limit exceeded")
		return
	}
	ds := ent.val
	ds.mu.Lock()
	res, err := ds.sess.ApplyCtx(r.Context(), req.Edits)
	ds.edits += res.Applied
	var wns *float64
	if !math.IsInf(res.WNS, 0) {
		wns = &res.WNS
	}
	walErr := s.walAppend(r.Context(), ds, req.Edits[:res.Applied])
	ds.mu.Unlock()
	if walErr != nil {
		httpError(w, r, fmt.Sprintf("durability write failed: %v", walErr), http.StatusInternalServerError)
		return
	}
	s.count("rcserve_design_edits_total", int64(res.Applied))
	resp := designEditResponse{
		ID: ent.id, Gen: res.Gen, Applied: res.Applied,
		DirtyNets: res.DirtyNets, VisitedNets: res.VisitedNets,
		WNS: wns, TNS: res.TNS, InvalidatedPaths: res.InvalidatedPaths,
	}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, resp)
}

// handleDesignSlack returns the session's current chip report: the full
// endpoint slack table (worst first) and the critical paths, re-derived
// incrementally after edits. The {"gen","id","report"} envelope is written
// directly around the report's own JSON, byte for byte what writeJSON would
// produce for it, without marshaling the report through a map.
func (s *server) handleDesignSlack(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_design_requests_total", 1)
	s.count("rcserve_slack_queries_total", 1)
	done, ok := admitOr429(w, r, s.designs, r.PathValue("id"))
	if !ok {
		return
	}
	defer done()
	ent, ok := s.lookupDesign(w, r)
	if !ok {
		return
	}
	defer s.designs.release(ent)
	ds := ent.val
	ds.mu.Lock()
	// Reports are immutable once built (edits build fresh ones), so the
	// snapshot can be marshaled outside the lock.
	gen, report := ds.sess.Gen(), ds.sess.Report()
	ds.mu.Unlock()
	id, _ := json.Marshal(ent.id) // a string always marshals
	body := strconv.AppendUint([]byte("{\n  \"gen\": "), gen, 10)
	body = append(append(append(body, ",\n  \"id\": "...), id...), ",\n  \"report\": "...)
	body, err := report.AppendJSON(body, 1)
	if err != nil {
		httpError(w, r, fmt.Sprintf("encode report: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, "\n}\n"...))
}

// designCloseRequest is the POST /design/{id}/close body: the repair
// budgets. All fields are optional (an empty body closes with the default
// 32-move budget and no cost ceiling); sequential forces one-at-a-time
// trial evaluation, which accepts the same moves, only slower.
type designCloseRequest struct {
	MaxMoves     int     `json:"maxMoves,omitempty"`
	MaxCost      float64 `json:"maxCost,omitempty"`
	TopEndpoints int     `json:"topEndpoints,omitempty"`
	Sequential   bool    `json:"sequential,omitempty"`
}

// designCloseResponse answers with the closure report — accepted edits,
// trajectory, Pareto frontier — plus the session generation afterwards. The
// accepted edits stay applied to the live session, so a following GET
// /design/{id}/slack reads the repaired design. When the run was cut short
// (a cancelled request context), error carries the reason and report the
// partial trajectory — the only record of the moves that did land.
type designCloseResponse struct {
	ID     string                 `json:"id"`
	Gen    uint64                 `json:"gen"`
	Report *rcdelay.ClosureReport `json:"report"`
	Error  string                 `json:"error,omitempty"`
}

// handleDesignClose runs the automated timing-closure engine on the live
// session under its lock: failing endpoints are mined for candidate repairs,
// candidates are evaluated concurrently as what-if trials on session forks,
// and the best slack-gain-per-cost moves are accepted until WNS >= 0 or a
// budget runs out.
func (s *server) handleDesignClose(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_design_requests_total", 1)
	s.count("rcserve_close_requests_total", 1)
	done, ok := admitOr429(w, r, s.designs, r.PathValue("id"))
	if !ok {
		return
	}
	defer done()
	ent, ok := s.lookupDesign(w, r)
	if !ok {
		return
	}
	defer s.designs.release(ent)
	var req designCloseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		httpError(w, r, fmt.Sprintf("bad request: %v", err), badRequestStatus(err))
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamDesignClose(w, r, ent, req)
		return
	}
	ds := ent.val
	ds.mu.Lock()
	report, err := rcdelay.CloseSession(r.Context(), ds.sess, rcdelay.ClosureOptions{
		MaxMoves:     req.MaxMoves,
		MaxCost:      req.MaxCost,
		TopEndpoints: req.TopEndpoints,
		Sequential:   req.Sequential,
		Obs:          s.obs,
	})
	var walErr error
	if report != nil {
		// A cancelled run still applied its accepted prefix; account for it
		// in memory and in the WAL (closure moves are ECO edits like any
		// other — a restart replays the repair).
		ds.edits += len(report.Edits)
		walErr = s.walAppend(r.Context(), ds, report.Edits)
	}
	gen := ds.sess.Gen()
	ds.mu.Unlock()
	if err != nil && report == nil {
		httpError(w, r, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if walErr != nil {
		httpError(w, r, fmt.Sprintf("durability write failed: %v", walErr), http.StatusInternalServerError)
		return
	}
	s.count("rcserve_closure_moves_total", int64(len(report.Moves)))
	resp := designCloseResponse{ID: ent.id, Gen: gen, Report: report}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, resp)
}

// designCornersRequest is the POST /design/{id}/corners body: the variation
// knobs. All fields are optional — an empty body sweeps the default
// slow/typ/fast corners with no per-net derating (a pure corner sweep) and
// the engine's default sample count; rSigma/cSigma switch on Gaussian
// per-net derating. The analysis threshold and default required time are the
// session's own, so the nominal typ corner agrees with GET /design/{id}/slack.
type designCornersRequest struct {
	Samples    int              `json:"samples,omitempty"`
	Seed       int64            `json:"seed,omitempty"`
	RSigma     float64          `json:"rSigma,omitempty"`
	CSigma     float64          `json:"cSigma,omitempty"`
	Corners    []rcdelay.Corner `json:"corners,omitempty"`
	Sequential bool             `json:"sequential,omitempty"`
}

// designCornersResponse answers with the multi-corner variation report for
// the session's current (post-edit) design state, tagged with the generation
// it was computed at.
type designCornersResponse struct {
	ID     string                `json:"id"`
	Gen    uint64                `json:"gen"`
	Report *rcdelay.CornerReport `json:"report"`
}

// handleDesignCorners runs the multi-corner Monte Carlo sweep on the live
// session's current design. The design is materialized under the session
// lock (a consistent snapshot at one generation), then the sweep — the
// expensive part — runs outside it, so edits are not blocked behind a long
// variation analysis.
func (s *server) handleDesignCorners(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_design_requests_total", 1)
	s.count("rcserve_corner_requests_total", 1)
	done, ok := admitOr429(w, r, s.designs, r.PathValue("id"))
	if !ok {
		return
	}
	defer done()
	ent, ok := s.lookupDesign(w, r)
	if !ok {
		return
	}
	defer s.designs.release(ent)
	var req designCornersRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		httpError(w, r, fmt.Sprintf("bad request: %v", err), badRequestStatus(err))
		return
	}
	ds := ent.val
	ds.mu.Lock()
	design, derr := ds.sess.Design()
	gen := ds.sess.Gen()
	threshold := ds.sess.Threshold()
	required := ds.sess.Required()
	ds.mu.Unlock()
	if derr != nil {
		httpError(w, r, derr.Error(), http.StatusInternalServerError)
		return
	}
	report, err := rcdelay.AnalyzeCorners(r.Context(), design, rcdelay.CornerOptions{
		Corners:    req.Corners,
		Samples:    req.Samples,
		Seed:       req.Seed,
		Variation:  rcdelay.CornerVariation{RSigma: req.RSigma, CSigma: req.CSigma},
		Threshold:  threshold,
		Required:   required,
		Sequential: req.Sequential,
		Obs:        s.obs,
	})
	if err != nil {
		httpError(w, r, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusOK, designCornersResponse{ID: ent.id, Gen: gen, Report: report})
}

func (s *server) handleDesignDelete(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_design_requests_total", 1)
	id := r.PathValue("id")
	deleted := s.designs.delete(id)
	// An explicit close also retires the durable state: without it the WAL
	// would resurrect the design on the next lookup.
	if s.wal != nil && s.wal.Exists(id) {
		if err := s.wal.Remove(id); err != nil {
			httpError(w, r, fmt.Sprintf("durability remove failed: %v", err), http.StatusInternalServerError)
			return
		}
		deleted = true
	}
	if !deleted {
		httpError(w, r, "unknown or expired design", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": true})
}
