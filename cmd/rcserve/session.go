package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	rcdelay "repro"
	"repro/internal/timing"
)

// A session is one interactive editing context: an incremental EditTree a
// client mutates with POST /session/{id}/edit and queries with GET
// /session/{id}/bounds, instead of resending the whole deck per probe.
// The mutex serializes all access to the EditTree (which is single-writer).
// Lifecycle (ids, TTL expiry, LRU eviction) lives in the shared ttlStore.
type session struct {
	mu    sync.Mutex
	et    *rcdelay.EditTree
	edits int
}

// sessionStore owns the live sessions.
type sessionStore = ttlStore[*session]

func newSessionStore(cfg storeConfig) *sessionStore {
	return newTTLStore[*session](cfg)
}

// --- HTTP surface -----------------------------------------------------------

// createSessionRequest names the initial network like a batch job does.
type createSessionRequest struct {
	Netlist    string `json:"netlist,omitempty"`
	Expression string `json:"expression,omitempty"`
}

type sessionInfoJSON struct {
	ID      string   `json:"id"`
	Nodes   int      `json:"nodes"`
	Outputs []string `json:"outputs"`
	Gen     uint64   `json:"gen"`
	Edits   int      `json:"edits"`
}

// editSpec is one edit operation, applied in order. Nodes are named (the
// stable handle across grows and prunes); numeric values ride in r/c/factor.
type editSpec struct {
	Op         string   `json:"op"`
	Node       string   `json:"node,omitempty"`
	Parent     string   `json:"parent,omitempty"`
	Name       string   `json:"name,omitempty"`
	Kind       string   `json:"kind,omitempty"` // "resistor" (default) or "line"
	R          *float64 `json:"r,omitempty"`
	C          *float64 `json:"c,omitempty"`
	Factor     *float64 `json:"factor,omitempty"`
	Netlist    string   `json:"netlist,omitempty"`    // graft source
	Expression string   `json:"expression,omitempty"` // graft source
}

type editRequest struct {
	Edits []editSpec `json:"edits"`
}

type editResponse struct {
	ID      string       `json:"id"`
	Gen     uint64       `json:"gen"`
	Applied int          `json:"applied"`
	Outputs []outputJSON `json:"outputs,omitempty"`
	Error   string       `json:"error,omitempty"`
}

func (s *server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_session_requests_total", 1)
	var req createSessionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, r, fmt.Sprintf("bad request: %v", err), badRequestStatus(err))
		return
	}
	var tree *rcdelay.Tree
	var err error
	switch {
	case req.Netlist != "" && req.Expression != "":
		httpError(w, r, "give either netlist or expression, not both", http.StatusUnprocessableEntity)
		return
	case req.Netlist != "":
		tree, err = rcdelay.ParseNetlist(req.Netlist)
	case req.Expression != "":
		tree, _, err = rcdelay.ParseExpression(req.Expression)
	default:
		httpError(w, r, "session names no network: set netlist or expression", http.StatusUnprocessableEntity)
		return
	}
	if err != nil {
		httpError(w, r, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	ent := s.sessions.create(&session{et: rcdelay.NewEditTree(tree)})
	defer s.sessions.release(ent)
	writeJSON(w, http.StatusCreated, s.sessionInfo(ent))
}

func (s *server) sessionInfo(ent *entry[*session]) sessionInfoJSON {
	sess := ent.val
	sess.mu.Lock()
	defer sess.mu.Unlock()
	info := sessionInfoJSON{
		ID:    ent.id,
		Nodes: sess.et.NumNodes(),
		Gen:   sess.et.Gen(),
		Edits: sess.edits,
	}
	for _, o := range sess.et.Outputs() {
		info.Outputs = append(info.Outputs, sess.et.Name(o))
	}
	return info
}

// lookupSession resolves the path id to a pinned entry — the pin keeps TTL
// and LRU eviction away from the session while the handler works on it; the
// caller must release it.
func (s *server) lookupSession(w http.ResponseWriter, r *http.Request) (*entry[*session], bool) {
	ent, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, r, "unknown or expired session", http.StatusNotFound)
		return nil, false
	}
	return ent, true
}

func (s *server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_session_requests_total", 1)
	if ent, ok := s.lookupSession(w, r); ok {
		defer s.sessions.release(ent)
		writeJSON(w, http.StatusOK, s.sessionInfo(ent))
	}
}

func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_session_requests_total", 1)
	if !s.sessions.delete(r.PathValue("id")) {
		httpError(w, r, "unknown or expired session", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": true})
}

// handleSessionEdit applies the posted edits in order under the session
// lock. On the first failing edit it stops and reports the error together
// with how many edits were applied (those stay applied — the EditTree
// rejects invalid edits atomically, so state remains consistent). The
// response carries the fresh characteristic times of every output so
// interactive clients get edit→times in one round trip.
func (s *server) handleSessionEdit(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_session_requests_total", 1)
	ent, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	defer s.sessions.release(ent)
	done, ok := admitOr429(w, r, s.sessions, ent)
	if !ok {
		return
	}
	defer done()
	sess := ent.val
	var req editRequest
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
	if !s.sessions.allowEdits(ent, len(req.Edits)) {
		rateLimited(w, r, "session edit rate limit exceeded")
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := editResponse{ID: ent.id}
	for i, spec := range req.Edits {
		if err := applyEdit(sess.et, spec); err != nil {
			resp.Error = fmt.Sprintf("edit %d (%s): %v", i, spec.Op, err)
			break
		}
		resp.Applied++
	}
	sess.edits += resp.Applied
	s.count("rcserve_edits_applied_total", int64(resp.Applied))
	resp.Gen = sess.et.Gen()
	for _, o := range sess.et.Outputs() {
		tm, err := sess.et.Times(o)
		if err != nil {
			if resp.Error == "" {
				resp.Error = fmt.Sprintf("output %q: %v", sess.et.Name(o), err)
			}
			continue
		}
		resp.Outputs = append(resp.Outputs, outputJSON{
			Name:  sess.et.Name(o),
			Times: timesJSON{TP: tm.TP, TD: tm.TD, TR: tm.TR, Ree: tm.Ree},
		})
	}
	status := http.StatusOK
	if resp.Error != "" {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, resp)
}

// applyEdit dispatches one editSpec onto the EditTree. graft is the one op
// handled here, because only the session API carries a netlist or
// expression source; every other op goes through timing.ApplyTreeEdit, the
// design sessions' dispatcher, guards included.
func applyEdit(et *rcdelay.EditTree, spec editSpec) error {
	if spec.Op != "graft" {
		return timing.ApplyTreeEdit(et, timing.Edit{
			Op: spec.Op, Node: spec.Node, Parent: spec.Parent, Name: spec.Name,
			Kind: spec.Kind, R: spec.R, C: spec.C, Factor: spec.Factor,
		})
	}
	parent, ok := et.Lookup(spec.Parent)
	if !ok {
		return fmt.Errorf("parent: unknown node %q", spec.Parent)
	}
	var sub *rcdelay.Tree
	var err error
	switch {
	case spec.Netlist != "" && spec.Expression != "":
		return fmt.Errorf("give either netlist or expression, not both")
	case spec.Netlist != "":
		sub, err = rcdelay.ParseNetlist(spec.Netlist)
	case spec.Expression != "":
		sub, _, err = rcdelay.ParseExpression(spec.Expression)
	default:
		return fmt.Errorf("graft names no network: set netlist or expression")
	}
	if err != nil {
		return err
	}
	if spec.R == nil {
		return fmt.Errorf("missing %q", "r")
	}
	var c float64
	if spec.C != nil {
		c = *spec.C
	}
	kind, err := timing.EdgeKindOf(spec.Kind, c)
	if err != nil {
		return err
	}
	_, err = et.Graft(parent, spec.Name, kind, *spec.R, c, sub)
	return err
}

type boundsResponse struct {
	ID      string       `json:"id"`
	Gen     uint64       `json:"gen"`
	Outputs []outputJSON `json:"outputs"`
}

// handleSessionBounds answers the current bound tables of every designated
// output: GET /session/{id}/bounds?thresholds=0.5,0.9&times=100,200.
// Thresholds and times are optional comma-separated lists; without them the
// response carries the characteristic times only.
func (s *server) handleSessionBounds(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_session_requests_total", 1)
	s.count("rcserve_bounds_queries_total", 1)
	ent, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	defer s.sessions.release(ent)
	sess := ent.val
	q := r.URL.Query()
	thresholds, err := parseFloats(q.Get("thresholds"))
	if err != nil {
		httpError(w, r, fmt.Sprintf("thresholds: %v", err), floatsStatus(err))
		return
	}
	times, err := parseFloats(q.Get("times"))
	if err != nil {
		httpError(w, r, fmt.Sprintf("times: %v", err), floatsStatus(err))
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := boundsResponse{ID: ent.id, Gen: sess.et.Gen()}
	outs := sess.et.Outputs()
	if name := q.Get("output"); name != "" {
		id, ok := sess.et.Lookup(name)
		if !ok {
			httpError(w, r, fmt.Sprintf("unknown node %q", name), http.StatusUnprocessableEntity)
			return
		}
		outs = []rcdelay.NodeID{id}
	}
	for _, o := range outs {
		tm, err := sess.et.Times(o)
		if err != nil {
			httpError(w, r, fmt.Sprintf("output %q: %v", sess.et.Name(o), err), http.StatusUnprocessableEntity)
			return
		}
		oj := outputJSON{
			Name:  sess.et.Name(o),
			Times: timesJSON{TP: tm.TP, TD: tm.TD, TR: tm.TR, Ree: tm.Ree},
		}
		if len(thresholds) > 0 || len(times) > 0 {
			bounds, err := rcdelay.NewBounds(tm)
			if err != nil {
				httpError(w, r, fmt.Sprintf("output %q: %v", sess.et.Name(o), err), http.StatusUnprocessableEntity)
				return
			}
			for _, row := range bounds.DelayTable(thresholds) {
				oj.Delay = append(oj.Delay, delayRowJSON{V: row.V, TMin: row.TMin, TMax: row.TMax})
			}
			for _, row := range bounds.VoltageTable(times) {
				oj.Voltage = append(oj.Voltage, voltageRowJSON{T: row.T, VMin: row.VMin, VMax: row.VMax})
			}
		}
		resp.Outputs = append(resp.Outputs, oj)
	}
	writeJSON(w, http.StatusOK, resp)
}

// errNonFinite marks query numbers that parse but are NaN/Inf — legal
// float64 syntax, meaningless as thresholds or times, and rejected
// everywhere else (netlist.ParseValue) — so the handler can answer 422
// (understood but unprocessable) instead of 400.
var errNonFinite = errors.New("non-finite value")

// floatsStatus maps a parseFloats error to its HTTP status: 422 for
// non-finite values, 400 for syntax the parser could not read at all.
func floatsStatus(err error) int {
	if errors.Is(err, errNonFinite) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

func parseFloats(csv string) ([]float64, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			// Overflow is valid syntax whose value is ±Inf — the same
			// non-finite rejection as a literal Inf, not a 400.
			if errors.Is(err, strconv.ErrRange) {
				return nil, fmt.Errorf("%w %q", errNonFinite, strings.TrimSpace(p))
			}
			return nil, fmt.Errorf("bad number %q", p)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w %q", errNonFinite, strings.TrimSpace(p))
		}
		out = append(out, v)
	}
	return out, nil
}
