// Command rcserve exposes the Penfield–Rubinstein bound analysis as an HTTP
// service backed by the concurrent batch engine: every request is routed
// through a shared worker pool, and repeated networks hit the shared
// memoization cache instead of being reanalyzed.
//
// Usage:
//
//	rcserve -addr :8080 -workers 8 -cache 4096
//
// Endpoints:
//
//	GET    /healthz             liveness plus engine/cache/session statistics
//	POST   /analyze             characteristic times and bound tables
//	POST   /certify             deadline certification verdicts
//	POST   /session             open an incremental editing session
//	GET    /session/{id}        session info
//	POST   /session/{id}/edit   apply local edits (O(depth) each, not O(n))
//	GET    /session/{id}/bounds current bound tables of every output
//	DELETE /session/{id}        close a session
//	POST   /design              analyze a multi-net chip design (levelized
//	                            interval-arrival timing over the worker pool)
//	                            and open an incremental re-timing session
//	GET    /design/{id}         design summary (WNS/TNS, verdict counts)
//	POST   /design/{id}/edit    apply ECO edits; only the edited nets and
//	                            their downstream fanout cones are re-timed
//	POST   /design/{id}/close   automated timing closure: repair the design
//	                            until WNS >= 0 or a budget runs out, and
//	                            return the accepted edits + trajectory
//	GET    /design/{id}/slack   full endpoint slack table + critical paths
//	DELETE /design/{id}         drop an analyzed design
//	GET    /metrics             Prometheus text exposition: per-route request
//	                            counters and latency histograms, engine-phase
//	                            timings, closure counters, cache gauges
//	GET    /readyz              readiness; 503 once a shutdown drain starts
//	GET    /debug/traces        flight recorder: recent + pinned slow/error
//	                            traces, newest first (?slow=1 pinned only)
//	GET    /debug/traces/{id}   one trace as a span tree; ?format=chrome
//	                            emits Chrome trace-event JSON (Perfetto)
//	GET    /debug/pprof/        runtime profiling (net/http/pprof)
//
// POST /design/{id}/close?stream=1 switches the closure response to
// Server-Sent Events: a "start" event with the initial WNS/TNS, one "move"
// event per accepted repair (move, WNS, TNS, cumulative cost, gain — the
// live trajectory), and a final "done" event with the closure summary.
// Disconnecting the client cancels the run through the request context; the
// moves accepted before the cancellation stay applied to the session.
//
// /analyze and /certify accept a single request object or a batch:
//
//	{"netlist": ".input in\nR1 in o 10\nC1 o 0 5\n.output o\n",
//	 "thresholds": [0.5, 0.9], "times": [100]}
//	{"jobs": [{"expression": "URC 15 9", "thresholds": [0.5]}, ...]}
//
// Each job names its network either as a SPICE-like deck ("netlist") or in
// the paper's algebraic notation ("expression"); /certify additionally takes
// "checks": [{"output": "o", "v": 0.5, "t": 100}] (omit "output" to check
// every output). Responses are JSON bound tables in job order; a batch is
// answered as {"results": [...]} with per-job "error" fields, so one bad
// deck does not fail its neighbors.
//
// The session endpoints serve interactive clients: open a session once with
// the full deck, then stream local edits ({"edits": [{"op": "setR", "node":
// "n3", "r": 5}, ...]}) and re-read bounds — each probe costs O(depth) on
// the server instead of a full reparse and O(n) reanalysis. Idle sessions
// expire after -session-ttl.
//
// The design endpoints scale the same idea to chip level: POST /design pays
// the full levelized analysis once, and POST /design/{id}/edit absorbs ECO
// edits ({"edits": [{"op": "setR", "net": "drv", "node": "o", "r": 5}]}) by
// re-timing only the edited nets' downstream cones, answering with the
// updated WNS/TNS, the dirty-cone statistics, and which previously reported
// critical paths the edit invalidated.
//
// POST /design/{id}/close turns the session over to the automated
// timing-closure engine: candidate repairs (driver sizing, wire
// rebuffering, load trimming, stub pruning) are evaluated concurrently as
// what-if trials against session forks and accepted by slack gain per unit
// cost until WNS >= 0 or the requested budgets ({"maxMoves": 16,
// "maxCost": 50}) run out. The answer carries the accepted ECO edit list
// (which stays applied to the session), the move-by-move trajectory, and
// the Pareto frontier of (cost, WNS) states the search visited.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	rcdelay "repro"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Server defaults, shared by the flag declarations and the zero-config
// construction paths (newServer, newSessionStore) so they cannot drift.
const (
	defaultSessionTTL  = 15 * time.Minute
	defaultMaxSessions = 1024
	defaultMaxBody     = 8 << 20 // bytes
	defaultStoreShards = 8
	defaultShardQueue  = 64
	defaultEditBurst   = 256
	defaultSnapEvery   = 64 // WAL edits between automatic snapshots
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cache       = flag.Int("cache", 0, "memoization cache entries (0 = default, negative = disabled)")
		sessionTTL  = flag.Duration("session-ttl", defaultSessionTTL, "idle lifetime of editing sessions")
		maxSessions = flag.Int("max-sessions", defaultMaxSessions, "maximum live editing sessions (LRU-evicted beyond)")
		maxBody     = flag.Int64("max-body", defaultMaxBody, "maximum request body size in bytes")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown drain waits for in-flight requests")
		shards      = flag.Int("shards", defaultStoreShards, "id-hash lock shards per store")
		shardQueue  = flag.Int("shard-queue", defaultShardQueue, "per-shard admission-queue depth (beyond it heavy requests get 429)")
		editRate    = flag.Float64("edit-rate", 0, "per-session sustained edits/second (0 = unlimited; beyond it edits get 429)")
		editBurst   = flag.Float64("edit-burst", defaultEditBurst, "per-session edit token-bucket burst")
		dataDir     = flag.String("data-dir", "", "durability directory: per-design WAL + snapshots (empty = in-memory only)")
		snapEvery   = flag.Int("snapshot-every", defaultSnapEvery, "WAL edits that trigger an automatic design snapshot")
		snapEach    = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshotter cadence (0 disables the timer)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		traceBuf    = flag.Int("trace-buffer", 64, "completed traces the flight recorder retains")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "request latency at or above which a trace is pinned in the slow ring")
	)
	flag.Parse()
	logger, err := newLogger(*logFormat)
	if err != nil {
		log.Fatalf("rcserve: %v", err)
	}
	srv := newServer(rcdelay.NewBatchEngine(rcdelay.BatchOptions{Workers: *workers, CacheSize: *cache}))
	srv.tracer = trace.New(trace.Options{Capacity: *traceBuf, SlowThreshold: *traceSlow})
	srv.logger = logger
	cfg := storeConfig{
		ttl: *sessionTTL, max: *maxSessions,
		shards: *shards, queue: *shardQueue,
		editRate: *editRate, editBurst: *editBurst,
	}
	srv.sessions = newSessionStore(cfg)
	srv.designs = newDesignStore(cfg)
	srv.registerStoreGauges()
	srv.maxBody = *maxBody
	srv.snapEvery = *snapEvery
	if *dataDir != "" {
		if err := srv.openWAL(*dataDir); err != nil {
			log.Fatalf("rcserve: open data dir: %v", err)
		}
		n, err := srv.recoverDesigns(context.Background())
		if err != nil {
			log.Fatalf("rcserve: recover designs: %v", err)
		}
		logger.Info("rcserve: recovered designs", "dataDir", *dataDir, "designs", n)
	}
	janitorStop := make(chan struct{})
	go srv.sessions.janitor(janitorStop)
	go srv.designs.janitor(janitorStop)
	if srv.wal != nil && *snapEach > 0 {
		go srv.snapshotter(*snapEach, janitorStop)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	logger.Info("rcserve: listening",
		"addr", *addr, "workers", srv.engine.Workers(), "sessionTTL", *sessionTTL)

	// Signal-driven drain: on SIGINT/SIGTERM flip /readyz to 503 (load
	// balancers stop sending), let in-flight requests finish under
	// http.Server.Shutdown, then stop the janitors and sweep the stores.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		srv.draining.Store(true)
		logger.Info("rcserve: drain started", "timeout", *drainWait)
		shCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			logger.Error("rcserve: drain incomplete", "err", err)
			os.Exit(1)
		}
		close(janitorStop)
		srv.sessions.sweep()
		srv.designs.sweep()
		if n, err := srv.snapshotAll(); err != nil {
			logger.Error("rcserve: final snapshot incomplete", "err", err)
		} else if n > 0 {
			logger.Info("rcserve: final snapshots written", "designs", n)
		}
		logger.Info("rcserve: drained")
	}
}

// server routes HTTP requests into a shared batch engine and a session
// store. It implements http.Handler so tests can drive it through httptest
// without a socket. Every server owns its own metrics registry — two
// servers in one process (as in tests) never alias each other's counters,
// which the old process-global expvar registration could not guarantee.
type server struct {
	engine   *rcdelay.BatchEngine
	sessions *sessionStore
	designs  *designStore
	maxBody  int64
	mux      *http.ServeMux
	start    time.Time
	obs      *obs.Registry
	logger   *slog.Logger
	tracer   *trace.Tracer
	draining atomic.Bool

	// Durability (nil wal = in-memory only, the default): per-design WAL +
	// snapshots under -data-dir, replayed at boot and lazily on store miss.
	wal       *wal.Store
	snapEvery int
	// recovering serializes lazy per-id recovery so two concurrent misses
	// for the same evicted design rebuild it once.
	recovering sync.Mutex
}

// requestMeta is mutated by the per-route registration wrapper and read by
// the ServeHTTP middleware: the mux only stamps Pattern on its internal
// request copy, so the matched route has to be smuggled out through a
// context pointer for the middleware's metric labels. The middleware also
// stamps the request's correlation id here so deep error paths (httpError)
// can echo it into response bodies.
type requestMeta struct {
	route string
	id    string
}

type metaKey struct{}

// handle registers pattern on the mux, recording the matched pattern into
// the request's meta for the middleware.
func (s *server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if m, ok := r.Context().Value(metaKey{}).(*requestMeta); ok {
			m.route = pattern
		}
		h(w, r)
	})
}

func newServer(engine *rcdelay.BatchEngine) *server {
	s := &server{
		engine:    engine,
		sessions:  newSessionStore(storeConfig{}), // zero config selects the defaults
		designs:   newDesignStore(storeConfig{}),
		maxBody:   defaultMaxBody,
		snapEvery: defaultSnapEvery,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		obs:       obs.NewRegistry(),
		logger:    slog.Default(),
		tracer:    trace.New(trace.Options{}),
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("POST /analyze", s.handleAnalyze)
	s.handle("POST /certify", s.handleCertify)
	s.handle("POST /session", s.handleSessionCreate)
	s.handle("POST /session/{id}/edit", s.handleSessionEdit)
	s.handle("GET /session/{id}/bounds", s.handleSessionBounds)
	s.handle("GET /session/{id}", s.handleSessionInfo)
	s.handle("DELETE /session/{id}", s.handleSessionDelete)
	s.handle("POST /design", s.handleDesignCreate)
	s.handle("POST /design/{id}/edit", s.handleDesignEdit)
	s.handle("POST /design/{id}/close", s.handleDesignClose)
	s.handle("POST /design/{id}/corners", s.handleDesignCorners)
	s.handle("GET /design/{id}/slack", s.handleDesignSlack)
	s.handle("GET /design/{id}", s.handleDesignInfo)
	s.handle("DELETE /design/{id}", s.handleDesignDelete)
	s.handle("GET /debug/traces", s.handleTraceList)
	s.handle("GET /debug/traces/{id}", s.handleTraceGet)
	s.handle("GET /debug/pprof/", pprof.Index)
	s.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.handle("GET /debug/pprof/profile", pprof.Profile)
	s.handle("GET /debug/pprof/symbol", pprof.Symbol)
	s.handle("GET /debug/pprof/trace", pprof.Trace)
	s.registerStoreGauges()
	return s
}

// registerStoreGauges (re)binds the sampled gauges to the server's current
// stores and engine; main calls it again after swapping the default stores
// for flag-configured ones.
func (s *server) registerStoreGauges() {
	s.obs.GaugeFunc("rcserve_uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	s.obs.GaugeFunc("rcserve_sessions_active", func() float64 { return float64(s.sessions.active()) })
	s.obs.GaugeFunc("rcserve_designs_active", func() float64 { return float64(s.designs.active()) })
	s.obs.GaugeFunc("rcserve_cache_entries", func() float64 { return float64(s.engine.CacheStats().Entries) })
	s.obs.GaugeFunc("rcserve_cache_hits", func() float64 { return float64(s.engine.CacheStats().Hits) })
	s.obs.GaugeFunc("rcserve_cache_misses", func() float64 { return float64(s.engine.CacheStats().Misses) })
}

// count bumps one named registry counter by n.
func (s *server) count(name string, n int64) { s.obs.Counter(name).Add(n) }

// statsSnapshot aggregates the engine, cache and session counters /healthz
// serves — a JSON view of numbers /metrics also exposes.
func (s *server) statsSnapshot() map[string]any {
	stats := s.engine.CacheStats()
	val := func(name string) int64 { return s.obs.Counter(name).Value() }
	return map[string]any{
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"workers":       s.engine.Workers(),
		"cache": map[string]any{
			"hits":      stats.Hits,
			"misses":    stats.Misses,
			"evictions": stats.Evictions,
			"entries":   stats.Entries,
		},
		"sessions": s.sessions.stats(),
		"designs":  s.designs.stats(),
		"requests": map[string]any{
			"analyze": val("rcserve_analyze_requests_total"),
			"certify": val("rcserve_certify_requests_total"),
			"session": val("rcserve_session_requests_total"),
			"design":  val("rcserve_design_requests_total"),
		},
		"editsApplied":  val("rcserve_edits_applied_total"),
		"boundsQueries": val("rcserve_bounds_queries_total"),
		"designEdits":   val("rcserve_design_edits_total"),
		"slackQueries":  val("rcserve_slack_queries_total"),
		"closeRequests": val("rcserve_close_requests_total"),
		"closureMoves":  val("rcserve_closure_moves_total"),
	}
}

// handleMetrics serves the whole registry in Prometheus text exposition
// format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WritePrometheus(w)
}

// handleReadyz answers 200 until a shutdown drain starts, then 503 so load
// balancers stop routing here while in-flight work finishes.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// errorBody builds the JSON error envelope, echoing the request's
// correlation id so a client can quote it when reporting a failure.
func errorBody(r *http.Request, msg string) map[string]any {
	body := map[string]any{"error": msg}
	if m, ok := r.Context().Value(metaKey{}).(*requestMeta); ok && m.id != "" {
		body["requestId"] = m.id
	}
	return body
}

// httpError writes a JSON error envelope (the session endpoints speak JSON
// end to end; plain-text errors are awkward for interactive clients).
func httpError(w http.ResponseWriter, r *http.Request, msg string, status int) {
	writeJSON(w, status, errorBody(r, msg))
}

// rateLimited answers 429 with a Retry-After hint — the backpressure signal
// for both the per-session edit-rate limit and a full shard queue.
func rateLimited(w http.ResponseWriter, r *http.Request, msg string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, errorBody(r, msg))
}

// admitOr429 takes an admission token from id's shard queue, answering 429
// when the shard is already at its in-flight depth. The returned func gives
// the token back; call it when the request is done.
func admitOr429[T any](w http.ResponseWriter, r *http.Request, st *ttlStore[T], id string) (func(), bool) {
	done, ok := st.admit(id)
	if !ok {
		rateLimited(w, r, "shard admission queue full")
		return nil, false
	}
	return done, true
}

// badRequestStatus maps oversized bodies to 413 and everything else a JSON
// decoder can complain about to 400.
func badRequestStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusWriter records the status code and byte count a handler produced,
// passing Flush through so SSE streaming keeps working behind the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// newRequestID returns a short random correlation id for one request's log
// lines.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "????????????"
	}
	return hex.EncodeToString(b[:])
}

// ServeHTTP is the telemetry middleware around the mux: every request gets
// a correlation id (the inbound X-Request-Id when well-formed, minted
// otherwise, echoed back either way), a trace root span (joining the
// inbound W3C traceparent when one is sent), a per-route latency
// observation, a per-route/status counter, and one structured log line
// carrying both ids.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	meta := &requestMeta{id: requestID(r)}
	ctx := context.WithValue(r.Context(), metaKey{}, meta)
	var tid trace.TraceID
	var parent trace.SpanID
	if tp := r.Header.Get("traceparent"); tp != "" {
		tid, parent, _ = trace.ParseTraceparent(tp)
	}
	ctx, span := s.tracer.StartRemote(ctx, "rcserve.request", tid, parent)
	span.SetAttr("method", r.Method)
	span.SetAttr("path", r.URL.Path)
	span.SetAttr("request_id", meta.id)
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w}
	w.Header().Set("X-Request-Id", meta.id)
	traceID := span.TraceID()
	if !traceID.IsZero() {
		w.Header().Set("traceparent", trace.FormatTraceparent(traceID, span.SpanID()))
	}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(start)
	route := meta.route
	if route == "" {
		route = "unmatched" // 404/405 straight from the mux
	}
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	span.SetAttr("route", route)
	span.SetAttr("status", strconv.Itoa(sw.status))
	if sw.status >= http.StatusInternalServerError {
		span.SetError(fmt.Errorf("status %d", sw.status))
	}
	span.End()
	s.obs.Counter("http_requests_total",
		"route", route, "code", fmt.Sprintf("%d", sw.status)).Add(1)
	s.obs.Histogram("http_request_seconds", obs.LatencyBuckets, "route", route).
		Observe(dur.Seconds())
	logAttrs := []any{
		"id", meta.id, "method", r.Method, "path", r.URL.Path, "route", route,
		"status", sw.status, "bytes", sw.bytes, "dur", dur,
	}
	if !traceID.IsZero() {
		logAttrs = append(logAttrs, "trace", traceID.String())
	}
	s.logger.Info("request", logAttrs...)
}

// jobRequest is one network plus its evaluation requests, as posted by the
// client. Exactly one of Netlist and Expression must be set.
type jobRequest struct {
	Tag        string      `json:"tag,omitempty"`
	Netlist    string      `json:"netlist,omitempty"`
	Expression string      `json:"expression,omitempty"`
	Thresholds []float64   `json:"thresholds,omitempty"`
	Times      []float64   `json:"times,omitempty"`
	Checks     []checkSpec `json:"checks,omitempty"`
}

type checkSpec struct {
	Output string  `json:"output,omitempty"`
	V      float64 `json:"v"`
	T      float64 `json:"t"`
}

// request is the envelope both POST endpoints accept: either a single job
// inline, or a list under "jobs".
type request struct {
	jobRequest
	Jobs []jobRequest `json:"jobs,omitempty"`
}

type timesJSON struct {
	TP  float64 `json:"tp"`
	TD  float64 `json:"td"`
	TR  float64 `json:"tr"`
	Ree float64 `json:"ree"`
}

type delayRowJSON struct {
	V    float64 `json:"v"`
	TMin float64 `json:"tmin"`
	TMax float64 `json:"tmax"`
}

type voltageRowJSON struct {
	T    float64 `json:"t"`
	VMin float64 `json:"vmin"`
	VMax float64 `json:"vmax"`
}

type outputJSON struct {
	Name    string           `json:"name"`
	Times   timesJSON        `json:"times"`
	Delay   []delayRowJSON   `json:"delay,omitempty"`
	Voltage []voltageRowJSON `json:"voltage,omitempty"`
}

type checkJSON struct {
	Output  string  `json:"output"`
	V       float64 `json:"v"`
	T       float64 `json:"t"`
	Verdict string  `json:"verdict"`
}

type jobJSON struct {
	Tag      string       `json:"tag,omitempty"`
	Key      string       `json:"key,omitempty"`
	CacheHit bool         `json:"cacheHit"`
	Outputs  []outputJSON `json:"outputs,omitempty"`
	Checks   []checkJSON  `json:"checks,omitempty"`
	Error    string       `json:"error,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "healthz is GET-only", http.StatusMethodNotAllowed)
		return
	}
	body := s.statsSnapshot()
	body["status"] = "ok"
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_analyze_requests_total", 1)
	s.handleBatch(w, r, false)
}

func (s *server) handleCertify(w http.ResponseWriter, r *http.Request) {
	s.count("rcserve_certify_requests_total", 1)
	s.handleBatch(w, r, true)
}

// handleBatch decodes the request envelope, runs the jobs through the
// engine, and writes the results in job order. certify restricts the
// response to verdicts and requires at least one check per job.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, certify bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "expected POST with a JSON body", http.StatusMethodNotAllowed)
		return
	}
	var req request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), badRequestStatus(err))
		return
	}
	single := len(req.Jobs) == 0
	specs := req.Jobs
	if single {
		specs = []jobRequest{req.jobRequest}
	}

	jobs := make([]rcdelay.BatchJob, len(specs))
	buildErrs := make([]error, len(specs))
	for i, spec := range specs {
		jobs[i], buildErrs[i] = buildJob(spec, certify)
	}
	results := s.engine.Run(r.Context(), jobs)

	answers := make([]jobJSON, len(specs))
	for i, res := range results {
		if buildErrs[i] != nil {
			answers[i] = jobJSON{Tag: specs[i].Tag, Error: buildErrs[i].Error()}
			continue
		}
		answers[i] = renderJob(res, certify)
	}
	if single {
		if answers[0].Error != "" {
			writeJSON(w, http.StatusUnprocessableEntity, answers[0])
			return
		}
		writeJSON(w, http.StatusOK, answers[0])
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": answers})
}

// buildJob parses one job spec into an engine job. Parse failures are
// reported per job, not per request; the placeholder job carries a nil tree
// the engine answers with an error that renderJob never sees.
func buildJob(spec jobRequest, certify bool) (rcdelay.BatchJob, error) {
	job := rcdelay.BatchJob{
		Tag:        spec.Tag,
		Thresholds: spec.Thresholds,
		Times:      spec.Times,
	}
	for _, c := range spec.Checks {
		job.Checks = append(job.Checks, rcdelay.BatchCheck{Output: c.Output, V: c.V, T: c.T})
	}
	switch {
	case spec.Netlist != "" && spec.Expression != "":
		return job, fmt.Errorf("give either netlist or expression, not both")
	case spec.Netlist != "":
		tree, err := rcdelay.ParseNetlist(spec.Netlist)
		if err != nil {
			return job, err
		}
		job.Tree = tree
	case spec.Expression != "":
		tree, _, err := rcdelay.ParseExpression(spec.Expression)
		if err != nil {
			return job, err
		}
		job.Tree = tree
	default:
		return job, fmt.Errorf("job names no network: set netlist or expression")
	}
	if certify && len(job.Checks) == 0 {
		return job, fmt.Errorf("certify needs at least one check ({output, v, t})")
	}
	return job, nil
}

func renderJob(res rcdelay.BatchResult, certify bool) jobJSON {
	out := jobJSON{Tag: res.Tag, Key: res.Key, CacheHit: res.CacheHit}
	if res.Err != nil {
		return jobJSON{Tag: res.Tag, Error: res.Err.Error()}
	}
	if !certify {
		for _, rep := range res.Outputs {
			oj := outputJSON{
				Name:  rep.Name,
				Times: timesJSON{TP: rep.Times.TP, TD: rep.Times.TD, TR: rep.Times.TR, Ree: rep.Times.Ree},
			}
			for _, row := range rep.Delay {
				oj.Delay = append(oj.Delay, delayRowJSON{V: row.V, TMin: row.TMin, TMax: row.TMax})
			}
			for _, row := range rep.Voltage {
				oj.Voltage = append(oj.Voltage, voltageRowJSON{T: row.T, VMin: row.VMin, VMax: row.VMax})
			}
			out.Outputs = append(out.Outputs, oj)
		}
	}
	for _, c := range res.Checks {
		out.Checks = append(out.Checks, checkJSON{Output: c.Output, V: c.V, T: c.T, Verdict: c.Verdict.String()})
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("rcserve: encode response: %v", err)
	}
}
