// Command peakpowerd serves the co-analysis over HTTP: clients POST an
// application (a built-in benchmark name or assembly source) plus options
// and receive the serialized, versioned peakpower.Report. Analyses are
// content-addressed-cached across requests — repeated analyses of the same
// image and options are served without re-exploration — and the server
// handles concurrent requests against shared per-target analyzers (the
// netlist is built once per design point).
//
// Usage:
//
//	peakpowerd [-addr :8090] [-cache 256] [-timeout 2m]
//	           [-data DIR] [-jobs 2] [-queue 64] [-drain-timeout 5s]
//	           [-scrub] [-webhook-secret S]
//	           [-coordinator [-fleet-lease-ttl 10s] [-fleet-local-slots 1]]
//	           [-join http://coordinator:8090]
//
// Endpoints:
//
//	GET  /healthz        liveness + cache statistics
//	GET  /readyz         readiness: queue depth, in-flight jobs, disk tier,
//	                     fleet membership + outstanding leases (coordinator)
//	GET  /debug/vars     expvar counters (jobs, queue, cache, fleet)
//	GET  /v1/targets     registered design points
//	GET  /v1/benchmarks  benchmark suite (?target=..., default ulp430)
//	POST /v1/analyze     run (or serve from cache) one analysis, synchronously
//	POST /v1/jobs        submit an analysis job; 202 + job ID immediately
//	GET  /v1/jobs/{id}   poll a job: state, then the Report (or error)
//	POST /v1/fleet/*     fleet protocol (coordinator mode; see internal/fleet)
//
// POST /v1/analyze and /v1/jobs share a request body:
//
//	{
//	  "target":  "ulp430",          // optional, default "ulp430"
//	  "bench":   "mult",            // either a built-in benchmark...
//	  "source":  "...", "name": "app",  // ...or assembly source + name
//	  "options": {                  // all optional
//	    "max_cycles": 0, "max_nodes": 0, "coi": 0,
//	    "clock_hz": 0, "engine": "packed", "timeout_ms": 0,
//	    "interrupts": {"min_latency": 8, "max_latency": 24}
//	  }
//	}
//
// The /v1/analyze response is the Report's canonical JSON — bit-identical
// to an in-process Analyze of the same target, application, and options.
// Failures return {"error": "..."} with a classifying status code:
// 400 (malformed request), 404 (unknown target, benchmark, or job),
// 422 (assembly failure or exhausted exploration budget),
// 429 + Retry-After (job queue full), 503 (draining),
// 504 (deadline), 500 (other analysis failures).
//
// Crash safety: with -data set, accepted jobs are journaled to
// DIR/jobs (atomic per-job records) and sealed Reports are written
// through to a verified content-addressed store under DIR/reports. A
// killed server re-enqueues interrupted jobs on restart and resumes
// their explorations from per-job checkpoints, sealing Reports
// byte-identical to an uninterrupted run. Without -data the server is
// ephemeral: jobs and cache die with the process.
//
// Fleet mode: with -coordinator (requires -data), durable jobs'
// explorations are split into checkpoint-journal tasks and leased to
// workers started with -join <coordinator-url>; the sealed Report is
// byte-identical to a single-node run at any fleet size (see
// internal/fleet). Jobs submitted with "callback_url" receive a webhook
// POST of their terminal status, HMAC-SHA256-signed when
// -webhook-secret is set.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobstore"
	"repro/peakpower"
)

func main() {
	cfg := serverConfig{}
	addr := flag.String("addr", ":8090", "listen address")
	flag.IntVar(&cfg.cacheSize, "cache", 256, "analysis cache capacity in reports (0 = unbounded)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "per-request analysis deadline cap")
	flag.StringVar(&cfg.dataDir, "data", "", "durable state directory (empty = ephemeral: no job journal, no disk report store)")
	flag.IntVar(&cfg.workers, "jobs", 2, "async job worker pool size")
	flag.IntVar(&cfg.queueCap, "queue", 64, "async job queue depth before 429 backpressure")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "shutdown budget for in-flight requests and jobs")
	flag.BoolVar(&cfg.scrub, "scrub", false, "delete damaged job records and stale temp files from the job store at startup (requires -data)")
	flag.StringVar(&cfg.webhookSecret, "webhook-secret", "", "HMAC-SHA256 key for signing webhook callback deliveries")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "distribute durable jobs' explorations to fleet workers (requires -data)")
	flag.StringVar(&cfg.joinURL, "join", "", "run as a fleet worker against this coordinator base URL")
	flag.DurationVar(&cfg.leaseTTL, "fleet-lease-ttl", 10*time.Second, "coordinator: lease TTL before unheartbeated tasks are re-issued")
	flag.IntVar(&cfg.localSlots, "fleet-local-slots", 1, "coordinator: tasks the coordinator executes itself alongside the fleet")
	flag.Parse()

	srv, err := newServer(cfg)
	if err != nil {
		log.Fatalf("peakpowerd: %v", err)
	}
	if err := srv.jobs.recover(); err != nil {
		log.Fatalf("peakpowerd: recovering jobs: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	durable := "ephemeral"
	if cfg.dataDir != "" {
		durable = "data " + cfg.dataDir
	}
	log.Printf("peakpowerd: listening on %s (%d targets, cache %d, %s)",
		*addr, len(peakpower.Targets()), cfg.cacheSize, durable)
	if srv.fleet != nil {
		log.Printf("peakpowerd: fleet coordinator up (lease ttl %s, %d local slot(s))",
			cfg.leaseTTL, cfg.localSlots)
	}
	if cfg.joinURL != "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		wk := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: strings.TrimRight(cfg.joinURL, "/"),
			ID:          host + *addr,
			Plan:        srv.planFor,
			Logf:        log.Printf,
		})
		go func() {
			if err := wk.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("peakpowerd: fleet worker stopped: %v", err)
			}
		}()
	}

	select {
	case err := <-errCh:
		log.Fatalf("peakpowerd: %v", err)
	case <-ctx.Done():
		log.Printf("peakpowerd: draining (budget %s)", *drainTimeout)
		deadline := time.Now().Add(*drainTimeout)
		srv.jobs.drain(*drainTimeout)
		shCtx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Fatalf("peakpowerd: shutdown: %v", err)
		}
	}
}

// serverConfig is everything main's flags decide.
type serverConfig struct {
	cacheSize int
	timeout   time.Duration
	dataDir   string // "" = ephemeral
	workers   int
	queueCap  int

	scrub         bool
	webhookSecret string
	coordinator   bool
	joinURL       string
	leaseTTL      time.Duration
	localSlots    int
}

// server holds the shared analysis state: one lazily built Analyzer per
// registered target, one content-addressed report cache across all of
// them (disk-backed when -data is set), and the async job runner. All
// fields are safe for concurrent request handling.
type server struct {
	cache   *peakpower.Cache
	disk    *peakpower.DiskStore // nil when ephemeral
	jobs    *jobRunner
	timeout time.Duration
	fleet   *fleet.Coordinator // nil unless -coordinator

	webhookSecret string
	webhookClient *http.Client

	mu        sync.Mutex
	analyzers map[string]*analyzerEntry
}

// analyzerEntry builds one target's analyzer exactly once, outside the
// server mutex, so a cold target's netlist construction never stalls
// requests for targets that are already built.
type analyzerEntry struct {
	once sync.Once
	an   *peakpower.Analyzer
	err  error
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.timeout <= 0 {
		cfg.timeout = 2 * time.Minute
	}
	if cfg.coordinator && cfg.dataDir == "" {
		return nil, fmt.Errorf("-coordinator requires -data (the fleet distributes work through the job checkpoint journal)")
	}
	if cfg.scrub && cfg.dataDir == "" {
		return nil, fmt.Errorf("-scrub requires -data (there is no job store to scrub)")
	}
	s := &server{
		cache:         peakpower.NewCache(cfg.cacheSize),
		timeout:       cfg.timeout,
		analyzers:     make(map[string]*analyzerEntry),
		webhookSecret: cfg.webhookSecret,
		webhookClient: &http.Client{Timeout: 10 * time.Second},
	}
	var store *jobstore.Store
	if cfg.dataDir != "" {
		disk, err := peakpower.NewDiskStore(filepath.Join(cfg.dataDir, "reports"))
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.cache.AttachDisk(disk)
		store, err = jobstore.Open(filepath.Join(cfg.dataDir, "jobs"), nil)
		if err != nil {
			return nil, err
		}
		if cfg.scrub {
			_, damaged, err := store.List()
			if err != nil {
				return nil, err
			}
			if err := store.Scrub(damaged); err != nil {
				return nil, fmt.Errorf("scrubbing job store: %w", err)
			}
			log.Printf("peakpowerd: scrub removed %d damaged job record(s): %v", len(damaged), damaged)
		}
	}
	if cfg.coordinator {
		s.fleet = fleet.NewCoordinator(fleet.CoordinatorConfig{
			LeaseTTL:   cfg.leaseTTL,
			LocalSlots: cfg.localSlots,
			Plan:       s.planFor,
			Logf:       log.Printf,
		})
	}
	s.jobs = newJobRunner(store, cfg.workers, cfg.queueCap, s.runJobAnalysis)
	s.jobs.notify = s.notifyWebhook
	registerMetrics(s)
	return s, nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/targets", s.handleTargets)
	mux.HandleFunc("/v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJobStatus)
	mux.Handle("/debug/vars", expvar.Handler())
	if s.fleet != nil {
		s.fleet.Routes(mux)
	}
	return mux
}

// analyzer returns (building on first use) the shared Analyzer for a
// target. Only the map access holds the lock; the netlist build runs
// under the entry's once, per target. A failed build is retried on the
// next request (the entry is dropped) so a transient failure does not
// pin an error forever.
func (s *server) analyzer(ctx context.Context, target string) (*peakpower.Analyzer, error) {
	s.mu.Lock()
	e, ok := s.analyzers[target]
	if !ok {
		e = &analyzerEntry{}
		s.analyzers[target] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.an, e.err = peakpower.NewFor(ctx, target, peakpower.WithCache(s.cache))
	})
	if e.err != nil {
		s.mu.Lock()
		if s.analyzers[target] == e {
			delete(s.analyzers, target)
		}
		s.mu.Unlock()
		return nil, e.err
	}
	return e.an, nil
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status  string               `json:"status"`
		Targets int                  `json:"targets"`
		Cache   peakpower.CacheStats `json:"cache"`
	}{"ok", len(peakpower.Targets()), s.cache.Stats()})
}

// handleReadyz reports whether the server should receive traffic, with
// enough detail for an operator to see why not: queue saturation,
// in-flight load, a degraded disk tier, or an in-progress drain (503).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.jobs.stats()
	body := struct {
		Status string                    `json:"status"`
		Jobs   runnerStats               `json:"jobs"`
		Cache  peakpower.CacheStats      `json:"cache"`
		Disk   *peakpower.DiskStoreStats `json:"disk,omitempty"`
		Fleet  *fleet.Stats              `json:"fleet,omitempty"`
	}{Status: "ok", Jobs: st, Cache: s.cache.Stats()}
	if s.disk != nil {
		ds := s.disk.Stats()
		body.Disk = &ds
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		body.Fleet = &fs
	}
	status := http.StatusOK
	if st.Draining {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *server) handleTargets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, peakpower.Targets())
}

func (s *server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	target := r.URL.Query().Get("target")
	if target == "" {
		target = peakpower.DefaultTarget
	}
	infos, err := peakpower.TargetBenchmarks(target)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, infos)
}

// analyzeRequest is the POST /v1/analyze and POST /v1/jobs body.
type analyzeRequest struct {
	Target  string         `json:"target,omitempty"`
	Bench   string         `json:"bench,omitempty"`
	Name    string         `json:"name,omitempty"`
	Source  string         `json:"source,omitempty"`
	Options analyzeOptions `json:"options"`
	// CallbackURL, on POST /v1/jobs, requests a webhook POST of the job's
	// terminal status (the GET /v1/jobs/{id} body) when it completes or
	// fails; signed with -webhook-secret when set. Ignored by /v1/analyze.
	CallbackURL string `json:"callback_url,omitempty"`
}

// analyzeOptions mirrors the peakpower functional options a client may
// override per request; zero values keep the target's defaults.
type analyzeOptions struct {
	MaxCycles int     `json:"max_cycles,omitempty"`
	MaxNodes  int     `json:"max_nodes,omitempty"`
	COI       int     `json:"coi,omitempty"`
	ClockHz   float64 `json:"clock_hz,omitempty"`
	Engine    string  `json:"engine,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
	// ExploreWorkers sets the parallel-exploration worker count. Results
	// are bit-identical at any value, so it is excluded from the cache
	// key: tune it freely for latency without fragmenting the cache.
	ExploreWorkers int `json:"explore_workers,omitempty"`
	// Interrupts attaches the peripheral bus with the given symbolic
	// arrival window; the zero-valued config selects the documented
	// defaults (set it to {} to enable interrupts with defaults).
	Interrupts *peakpower.InterruptConfig `json:"interrupts,omitempty"`
}

// decodeAnalyzeRequest reads and validates a request body shared by the
// synchronous and async endpoints, returning the raw bytes alongside (the
// job journal records the request verbatim).
func decodeAnalyzeRequest(w http.ResponseWriter, r *http.Request) (*analyzeRequest, json.RawMessage, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return nil, nil, fmt.Errorf("reading request: %w", err)
	}
	var req analyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, fmt.Errorf("decoding request: %w", err)
	}
	if (req.Bench == "") == (req.Source == "") {
		return nil, nil, fmt.Errorf(`exactly one of "bench" or "source" must be set`)
	}
	return &req, body, nil
}

// buildOpts translates wire options into peakpower functional options.
func buildOpts(o analyzeOptions) ([]peakpower.Option, error) {
	var opts []peakpower.Option
	if o.MaxCycles > 0 {
		opts = append(opts, peakpower.WithMaxCycles(o.MaxCycles))
	}
	if o.MaxNodes > 0 {
		opts = append(opts, peakpower.WithMaxNodes(o.MaxNodes))
	}
	if o.COI > 0 {
		opts = append(opts, peakpower.WithCOI(o.COI))
	}
	if o.ClockHz > 0 {
		opts = append(opts, peakpower.WithClockHz(o.ClockHz))
	}
	if o.ExploreWorkers > 0 {
		opts = append(opts, peakpower.WithExploreWorkers(o.ExploreWorkers))
	}
	if o.Engine != "" {
		eng, err := peakpower.ParseEngine(o.Engine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, peakpower.WithEngine(eng))
	}
	if o.Interrupts != nil {
		opts = append(opts, peakpower.WithInterrupts(*o.Interrupts))
	}
	return opts, nil
}

// runAnalysis executes one validated request against the shared analyzers
// — the single analysis path behind both the synchronous endpoint and the
// job workers. extra options (e.g. a job's checkpoint) are appended after
// the request's own.
func (s *server) runAnalysis(ctx context.Context, req *analyzeRequest, extra ...peakpower.Option) (*peakpower.Result, error) {
	ctx, cancel := s.withTimeout(ctx, req)
	defer cancel()
	plan, err := s.plan(ctx, req, extra...)
	if err != nil {
		return nil, err
	}
	return plan.Analyze(ctx)
}

// withTimeout bounds ctx by the request's deadline: the server's -timeout
// cap, lowered by options.timeout_ms.
func (s *server) withTimeout(ctx context.Context, req *analyzeRequest) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if ms := req.Options.TimeoutMS; ms > 0 && time.Duration(ms)*time.Millisecond < timeout {
		timeout = time.Duration(ms) * time.Millisecond
	}
	return context.WithTimeout(ctx, timeout)
}

// runJobAnalysis is the job workers' runFunc: re-decode the journaled
// request and run it with a per-job exploration checkpoint (when durable),
// so a job killed mid-exploration resumes instead of restarting. In
// coordinator mode the exploration itself is first driven through the
// fleet (filling that same checkpoint journal to completion), and the
// runAnalysis call below merely seals the Report from it.
func (s *server) runJobAnalysis(ctx context.Context, j *jobstore.Job) (json.RawMessage, error) {
	var req analyzeRequest
	if err := json.Unmarshal(j.Request, &req); err != nil {
		return nil, fmt.Errorf("decoding journaled request: %w", err)
	}
	var extra []peakpower.Option
	if s.jobs.store != nil {
		extra = append(extra, peakpower.WithCheckpoint(s.jobs.store.CheckpointPath(j.ID)))
	}
	if s.fleet != nil && s.jobs.store != nil {
		if err := s.runFleet(ctx, &req, j); err != nil {
			return nil, err
		}
	}
	res, err := s.runAnalysis(ctx, &req, extra...)
	if err != nil {
		return nil, err
	}
	return res.Report.MarshalJSON()
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	req, _, err := decodeAnalyzeRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := buildOpts(req.Options); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.runAnalysis(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	data, err := res.Report.MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleJobSubmit accepts an analysis job: 202 + the job ID and its poll
// URL. The request is validated up front (including options) so a job
// never fails on a malformed submission, only on the analysis itself. A
// full queue answers 429 + Retry-After immediately — intake never blocks
// behind the workers.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	req, raw, err := decodeAnalyzeRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := buildOpts(req.Options); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.CallbackURL != "" {
		if err := validateCallbackURL(req.CallbackURL); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	j, err := s.jobs.submit(raw)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		StatusURL string `json:"status_url"`
	}{j.ID, string(j.State), "/v1/jobs/" + j.ID})
}

// jobStatusResponse is the GET /v1/jobs/{id} body. Report is the sealed
// Report's canonical JSON once the job is done; Error the failure text
// once it has failed.
type jobStatusResponse struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Attempts    int             `json:"attempts,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Report      json.RawMessage `json:"report,omitempty"`
	Error       string          `json:"error,omitempty"`
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	j, err := s.jobs.get(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	resp := jobStatusResponse{
		ID:          j.ID,
		State:       string(j.State),
		Attempts:    j.Attempts,
		SubmittedAt: j.SubmittedAt,
		Report:      j.Result,
		Error:       j.Error,
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		resp.FinishedAt = &t
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusFor classifies an analysis error into an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, peakpower.ErrUnknownTarget), errors.Is(err, peakpower.ErrUnknownBench):
		return http.StatusNotFound
	case errors.Is(err, peakpower.ErrAssemble),
		errors.Is(err, peakpower.ErrCycleBudget),
		errors.Is(err, peakpower.ErrNodeBudget):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}
