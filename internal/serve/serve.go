// Package serve is the one HTTP tier of the simulation service. A
// Server hands every admitted request to a Backend: the local
// experiments.Runner in rocksimd (New), or a fleet of rocksimd shards
// in rockgate (internal/gate). One daemon hosts the content-addressed
// run cache, so repeated cells across clients — CI shards regenerating
// overlapping figures, developers probing one configuration —
// deduplicate onto single simulations exactly as they do inside one
// sstbench process; a fleet places each cell on the shard that caches
// it, so clients cannot tell a fleet from one node.
//
// The API surfaces the two existing CLI shapes byte-for-byte:
//
//	POST /v1/run     one (kind, workload, options) cell; the response
//	                 body is identical to `sstsim -json` for that cell.
//	POST /v1/cell    the fleet-internal cell endpoint (local backend
//	                 only): full wire options in, a CellStats snapshot
//	                 (or classified cell error) out. Deterministic
//	                 simulation failures are 200s with an error body —
//	                 only transport/admission problems use HTTP status —
//	                 so a router can tell "this cell fails everywhere"
//	                 from "this shard is unavailable".
//	POST /v1/grid    one or more experiments; the body is identical to
//	                 `sstbench` output minus its wall-clock lines.
//	                 {"async": true} returns 202 with a result id.
//	GET  /v1/result/{id}   poll an async grid (202 running, 200 done).
//	GET  /v1/trace/{id}    a traced request's span tree (Chrome JSON, or
//	                       the flat list with ?format=spans).
//	GET  /metrics    Prometheus text (service counters + run metrics).
//	GET  /healthz    liveness; 503 once draining.
//
// Every response echoes (or assigns) X-Request-ID. Requests are traced
// when Config.Trace is set or the client sends X-Trace: 1; tracing
// changes headers and the /v1/trace ring only, never a response body.
//
// Backpressure is admission-controlled: at most Config.QueueDepth run
// and grid requests may be in flight (executing on the backend or
// queued for it); beyond that the service answers 429 with a
// Retry-After hint instead of building an unbounded backlog. StartDrain
// flips the service into lame-duck mode — new work is refused with 503,
// in-flight and queued async work runs to completion — and Wait blocks
// until the last admitted request finishes, which is how ListenAndServe
// turns SIGTERM into a loss-free shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/obs"
	"rocksim/internal/workload"
)

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 32
	DefaultRetryAfter = time.Second
	// maxFinishedJobs bounds retained async results; the oldest finished
	// results are evicted first, running jobs are never evicted.
	maxFinishedJobs = 64
)

// Config parameterizes a Server.
type Config struct {
	// ShardID names this daemon within a fleet (rocksimd -shard-id);
	// echoed by /healthz so routers and operators can tell shards apart.
	// Empty outside a fleet.
	ShardID string
	// QueueDepth is the admission bound: the maximum number of run/grid
	// requests in flight at once (executing or queued). 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// RetryAfter is the hint returned with 429 responses. 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// Trace enables request-scoped tracing for every request; off, a
	// client can still trace one request with the X-Trace: 1 header.
	// Tracing never changes a response body — only headers and the
	// /v1/trace ring.
	Trace bool
	// TraceRing bounds retained finished traces (0 = DefaultTraceRing).
	TraceRing int
	// Logger receives the structured request/drain log lines; nil
	// discards them (tests), the daemons pass their process logger.
	Logger *slog.Logger
	// Clock feeds span timestamps; nil means time.Now. Tests inject a
	// fake incrementing clock to make trace exports byte-deterministic.
	Clock func() time.Time
}

// Backend is a Server's compute seam. The Server owns everything the
// two tiers share — request ids, logging and tracing, admission, drain,
// the async-job store and request validation — and hands each admitted
// request to the backend.
type Backend interface {
	// Run answers one admitted, decoded /v1/run request.
	Run(ctx context.Context, w http.ResponseWriter, req RunRequest)
	// Grid computes one admitted, validated grid request into a status
	// and body (the sstbench text on 200, an error message otherwise); a
	// 429 also carries its Retry-After.
	Grid(ctx context.Context, ids []string, scale workload.Scale) (status int, retryAfter time.Duration, body []byte)
	// Health adds the backend's fields to a /healthz body and returns
	// the status to answer with while the Server is not draining.
	Health(body map[string]any) (status int)
	// Metrics writes the /metrics scrape: the Server's registry, after
	// refreshing the backend's own samples in it.
	Metrics(w io.Writer) error
}

// Tier tells the two tiers apart in the plumbing they share, so each
// keeps the samples, request ids and bodies it has always exposed.
type Tier struct {
	Metrics   string // prefix of the shared /metrics counters
	RequestID string // prefix of the request ids the middleware assigns
	Queue     string // what a 429 body calls the admission queue
}

// daemon is rocksimd's tier.
var daemon = Tier{Metrics: "serve", RequestID: "r", Queue: "queue"}

// Server is the HTTP handler of both tiers.
type Server struct {
	cfg   Config
	tier  Tier
	b     Backend
	reg   *obs.Registry
	mux   *http.ServeMux
	log   *slog.Logger
	clock func() time.Time

	// sem is the admission semaphore: one slot per admitted heavy
	// request. Acquisition is non-blocking — a full channel is a 429,
	// never a queued connection.
	sem      chan struct{}
	draining atomic.Bool
	// wg tracks admitted work, including async grid goroutines that
	// outlive their HTTP request; Wait returns when it drains.
	wg sync.WaitGroup
	// reqID numbers requests that arrive without an X-Request-ID.
	reqID atomic.Uint64

	mu         sync.Mutex
	jobs       map[string]*gridJob
	order      []string // job ids, oldest first, for bounded retention
	nextID     uint64
	traces     map[string]*obs.Tracer
	traceOrder []string // request ids, oldest first
}

// gridJob is one async grid computation.
type gridJob struct {
	done       chan struct{}
	status     int
	retryAfter time.Duration
	body       []byte
}

// NewServer builds a Server of the given tier over b. The backend
// reaches the Server's registry and logger through Registry and Logger.
func NewServer(cfg Config, tier Tier, b Backend) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		cfg:    cfg,
		tier:   tier,
		b:      b,
		reg:    obs.NewRegistry(),
		mux:    http.NewServeMux(),
		log:    cfg.Logger,
		clock:  cfg.Clock,
		sem:    make(chan struct{}, cfg.QueueDepth),
		jobs:   make(map[string]*gridJob),
		traces: make(map[string]*obs.Tracer),
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/grid", s.handleGrid)
	s.mux.HandleFunc("GET /v1/result/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Registry is the registry /metrics exports; backends count into it.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Logger is the Server's structured logger.
func (s *Server) Logger() *slog.Logger { return s.log }

// count bumps one of the counters both tiers keep, under the tier's
// prefix.
func (s *Server) count(name string) { s.reg.Counter(s.tier.Metrics + "/" + name).Inc() }

// StartDrain puts the service in lame-duck mode: subsequent run/grid
// requests are refused with 503 while already-admitted work (including
// async grids) runs to completion.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.log.Info("drain start", "queued", len(s.sem))
	}
}

// Wait blocks until every admitted request has finished. Call after
// StartDrain (and after http.Server.Shutdown) for a loss-free stop.
func (s *Server) Wait() { s.wg.Wait() }

// ListenAndServe serves on addr until SIGTERM or SIGINT, then drains:
// new work is refused with 503, the listener closes and open
// connections get grace to finish, and it returns only once every
// admitted request — async grids included — has finished, so a drain
// never abandons a computation.
func (s *Server) ListenAndServe(addr string, grace time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: s}
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	failed := make(chan error, 1)
	go func() { failed <- hs.ListenAndServe() }()
	select {
	case err := <-failed:
		return err
	case <-sig.Done():
	}
	s.log.Info("signal received; draining")
	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		s.log.Error("shutdown", "err", err)
	}
	s.Wait()
	return nil
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Kind     string      `json:"kind"`     // core model, e.g. "sst" (sim.KindByName)
	Workload string      `json:"workload"` // built-in workload name
	Scale    string      `json:"scale,omitempty"`
	Options  *RunOptions `json:"options,omitempty"`
}

// RunOptions mirrors the sstsim override flags. Pointer fields
// distinguish "absent" from a zero override, matching the CLI's
// sentinel of -1.
type RunOptions struct {
	DQ        *int   `json:"dq,omitempty"`
	Ckpt      *int   `json:"ckpt,omitempty"`
	SSB       *int   `json:"ssb,omitempty"`
	MemLat    *int   `json:"memlat,omitempty"`
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	Timeout   string `json:"timeout,omitempty"` // Go duration, e.g. "30s"
	Faults    string `json:"faults,omitempty"`  // faults.ParseSpec syntax
}

// GridRequest is the body of POST /v1/grid.
type GridRequest struct {
	Exps  []string `json:"exps,omitempty"` // experiment ids; empty = all
	Scale string   `json:"scale,omitempty"`
	Async bool     `json:"async,omitempty"`
}

// AsyncAccepted is the 202 body of an async grid submission.
type AsyncAccepted struct {
	ID     string `json:"id"`
	Result string `json:"result"` // poll URL
}

// parseScale maps the wire scale to workload.Scale; "" defaults to full
// like the CLIs.
func parseScale(s string) (workload.Scale, error) {
	switch s {
	case "", "full":
		return workload.ScaleFull, nil
	case "test":
		return workload.ScaleTest, nil
	}
	return 0, fmt.Errorf("bad scale %q (want test or full)", s)
}

// ScaleName is parseScale's inverse, the canonical wire scale.
func ScaleName(s workload.Scale) string {
	if s == workload.ScaleTest {
		return "test"
	}
	return "full"
}

func knownExperiment(id string) bool { return slices.Contains(experiments.All, id) }

// admit takes an admission slot, or explains over HTTP why it could
// not. The caller must release() exactly when ok.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		s.count("rejected_draining")
		s.log.Warn("request refused: draining", "id", RequestID(ctx))
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new work")
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.count("rejected_busy")
		secs := retryAfterSecs(s.cfg.RetryAfter)
		s.log.Warn("request refused: queue full", "id", RequestID(ctx), "retry_after_s", secs)
		WriteResult(w, http.StatusTooManyRequests, s.cfg.RetryAfter,
			fmt.Appendf(nil, "%s full (%d in flight); retry after %ds", s.tier.Queue, s.cfg.QueueDepth, secs))
		return nil, false
	}
	s.wg.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.sem
			s.wg.Done()
		})
	}, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	s.count("run_requests")
	_, as := obs.StartSpan(ctx, "admission")
	release, ok := s.admit(ctx, w)
	as.End()
	if !ok {
		return
	}
	defer release()
	var req RunRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.b.Run(ctx, w, req)
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.count("grid_requests")
	release, ok := s.admit(r.Context(), w)
	if !ok {
		return
	}
	// Released inline on the sync path, by the worker on the async path.
	var req GridRequest
	ids, scale, err := decodeGrid(r, &req)
	if err != nil {
		release()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	if req.Async {
		job, id := s.newJob()
		// The computation must outlive this handler's request context.
		ctx := context.WithoutCancel(r.Context())
		go func() {
			defer release()
			status, retry, body := s.grid(ctx, ids, scale)
			s.finishJob(job, status, retry, body)
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(AsyncAccepted{ID: id, Result: "/v1/result/" + id})
		return
	}

	defer release()
	status, retry, body := s.grid(r.Context(), ids, scale)
	WriteResult(w, status, retry, body)
}

// decodeGrid decodes a grid request and validates it before any work
// starts: every experiment must exist (none means all of them) and the
// scale must parse.
func decodeGrid(r *http.Request, req *GridRequest) ([]string, workload.Scale, error) {
	if err := decodeJSON(r, req); err != nil {
		return nil, 0, err
	}
	ids := req.Exps
	if len(ids) == 0 {
		ids = experiments.All
	}
	for _, id := range ids {
		if !knownExperiment(id) {
			return nil, 0, fmt.Errorf("unknown experiment %q", id)
		}
	}
	scale, err := parseScale(req.Scale)
	return ids, scale, err
}

// grid computes one validated grid on the backend. A success body is
// byte-identical to `sstbench -exp <ids>` with the wall-clock
// "(… regenerated in …)" lines removed: each result rendered by
// Result.Fprint followed by the blank separator line.
func (s *Server) grid(ctx context.Context, ids []string, scale workload.Scale) (int, time.Duration, []byte) {
	status, retry, body := s.b.Grid(ctx, ids, scale)
	if status == http.StatusOK {
		s.count("grids_served")
	}
	return status, retry, body
}

// WriteResult answers with a computed status and body: the grid text on
// 200, otherwise the body as the JSON error message, with the
// Retry-After hint on a 429.
func WriteResult(w http.ResponseWriter, status int, retryAfter time.Duration, body []byte) {
	if status == http.StatusOK {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(body)
		return
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(retryAfter)))
	}
	httpError(w, status, string(body))
}

// ErrorStatus is the status of a failed computation: 504 when the
// wall-clock watchdog fired, 500 otherwise.
func ErrorStatus(err error) int {
	if errors.Is(err, cpu.ErrDeadline) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// retryAfterSecs rounds a Retry-After hint up to whole seconds, the
// header's unit.
func retryAfterSecs(d time.Duration) int {
	return max(0, int((d+time.Second-1)/time.Second))
}

// newJob registers a fresh async job and returns it with its id.
func (s *Server) newJob() (*gridJob, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("g%06d", s.nextID)
	job := &gridJob{done: make(chan struct{})}
	s.jobs[id] = job
	s.order = append(s.order, id)
	return job, id
}

// finishJob publishes an async result and evicts the oldest finished
// results beyond the retention bound.
func (s *Server) finishJob(job *gridJob, status int, retry time.Duration, body []byte) {
	s.mu.Lock()
	job.status, job.retryAfter, job.body = status, retry, body
	finished := 0
	for _, jid := range s.order {
		if j := s.jobs[jid]; j != nil && (j == job || isDone(j)) {
			finished++
		}
	}
	for i := 0; i < len(s.order) && finished > maxFinishedJobs; {
		jid := s.order[i]
		j := s.jobs[jid]
		if j != nil && j != job && isDone(j) {
			delete(s.jobs, jid)
			s.order = append(s.order[:i], s.order[i+1:]...)
			finished--
			continue
		}
		i++
	}
	s.mu.Unlock()
	close(job.done)
}

func isDone(j *gridJob) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown result id %q", id))
		return
	}
	if !isDone(job) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"state": "running"})
		return
	}
	WriteResult(w, job.status, job.retryAfter, job.body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.b.Metrics(w); err != nil {
		// Headers are gone; nothing more to do than note it.
		s.count("metrics_errors")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	body := map[string]any{"ok": !draining, "draining": draining}
	status := s.b.Health(body)
	if draining {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// decodeJSON reads a request body strictly: unknown fields are errors,
// so a typo'd option never silently runs a default simulation.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
