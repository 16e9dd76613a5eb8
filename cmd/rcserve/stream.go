package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	rcdelay "repro"
)

// SSE stream for POST /design/{id}/close?stream=1: the same closure run as
// the buffered handler, but each accepted move is pushed to the client as it
// lands instead of arriving all at once in the final report. The event
// sequence is

//	event: start   — design state before the run (initial WNS/TNS)
//	event: move    — one per accepted move, in acceptance order
//	event: done    — final state: closed, reason, WNS/TNS, cost, error

// with every data line a JSON object. A client that disconnects mid-run
// cancels the engine through the request context, and computeBudget bounds
// the run like the buffered handler's; the moves accepted before the
// cancellation stay applied to the session and are logged to the WAL (a
// disconnected client never observes the done event, but the session is
// consistent and a following GET /design/{id}/slack reads the partial
// repair).

// closeStartEvent is the "start" SSE payload.
type closeStartEvent struct {
	ID  string   `json:"id"`
	Gen uint64   `json:"gen"`
	WNS *float64 `json:"wns,omitempty"` // omitted when +Inf (no constrained endpoint)
	TNS float64  `json:"tns"`
}

// closeDoneEvent is the "done" SSE payload.
type closeDoneEvent struct {
	ID     string   `json:"id"`
	Gen    uint64   `json:"gen"`
	Closed bool     `json:"closed"`
	Reason string   `json:"reason"`
	Moves  int      `json:"moves"`
	Cost   float64  `json:"cost"`
	WNS    *float64 `json:"wns,omitempty"`
	TNS    float64  `json:"tns"`
	Error  string   `json:"error,omitempty"`
}

// finitePtr boxes v for omitempty JSON unless it is infinite (an
// unconstrained design's WNS is +Inf, which encoding/json rejects).
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// sseWriter frames Server-Sent Events and flushes each one immediately so
// the client sees moves as they are accepted, not when the run ends. The
// mutex serializes frames: http.ResponseWriter promises nothing about
// concurrent writers, and without the lock, frames written from two
// goroutines interleave mid-line.
type sseWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	f  http.Flusher
}

// event writes one named SSE frame with a JSON data line. Marshal errors
// are impossible by construction of the payload types; a frame the client
// has stopped reading surfaces as a write error the handler ignores (the
// request context carries the authoritative disconnect signal).
func (s *sseWriter) event(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	s.f.Flush()
}

// streamDesignClose runs the closure engine under the session lock while
// forwarding per-move progress as SSE. The lock is held across the whole
// run, exactly like the buffered handler: the stream observes a consistent
// single-writer session.
func (s *server) streamDesignClose(w http.ResponseWriter, r *http.Request, ent *entry[*designSession], req designCloseRequest) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, r, "streaming unsupported by this connection", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	sse := &sseWriter{w: w, f: flusher}

	sess := ent.val.sess
	opt := req.options(s.obs)
	opt.Progress = func(ev rcdelay.ClosureProgress) { sse.event("move", ev) }
	report, gen, err, walErr := s.closeDesign(r.Context(), ent.val, opt, func() {
		wns, tns := sess.Summary()
		sse.event("start", closeStartEvent{
			ID: ent.id, Gen: sess.Gen(), WNS: finitePtr(wns), TNS: tns,
		})
	})

	done := closeDoneEvent{ID: ent.id, Gen: gen}
	if err != nil {
		done.Error = err.Error()
	}
	if walErr != nil {
		done.Error = fmt.Sprintf("durability write failed: %v", walErr)
	}
	if report != nil {
		s.count("rcserve_closure_moves_total", int64(len(report.Moves)))
		done.Closed = report.Closed
		done.Reason = report.Reason
		done.Moves = len(report.Moves)
		done.Cost = report.Cost
		done.WNS = finitePtr(report.FinalWNS)
		done.TNS = report.FinalTNS
	}
	sse.event("done", done)
}
