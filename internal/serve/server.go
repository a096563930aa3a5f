package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	v1 "repro/internal/serve/v1"
	"repro/internal/ucx"
)

// Server wires the registry to the v1 HTTP API. Handlers are stateless
// beyond the registry and the metrics registry, so the http.Handler is
// safe for arbitrary concurrency.
type Server struct {
	reg *Registry
	mux *http.ServeMux

	// maxBatch bounds BatchRequest.Items.
	maxBatch int
	// maxBody bounds request bodies (plan/observe/register documents).
	maxBody int64

	// metrics is the serving layer's own observability: request counters
	// per endpoint and wall-clock latency histograms, exported in
	// /v1/stats. This is real time, not sim time — the daemon is a real
	// server and its latencies are the SLO surface.
	metrics *obs.Registry
	met     serverMetrics
}

// Options tune the server. Zero values take defaults.
type Options struct {
	// MaxBatchItems bounds the item count of one batch request
	// (default DefaultMaxBatchItems).
	MaxBatchItems int
	// MaxBodyBytes bounds request-body size (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
}

// Defaults for Options.
const (
	// DefaultMaxBatchItems admits batches comfortably above the load
	// driver's standard 1024-item shape while bounding worst-case work
	// per request.
	DefaultMaxBatchItems = 65536
	// DefaultMaxBodyBytes bounds bodies at 32 MiB — room for a 64k-item
	// batch or a large hand-written topology, nothing unbounded.
	DefaultMaxBodyBytes = 32 << 20
)

// serveLatencyBounds bucket request latencies in seconds: 10 µs .. 1 s.
var serveLatencyBounds = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// serverMetrics caches hot metric pointers (registration takes a lock;
// recording is lock-free).
type serverMetrics struct {
	planReqs     *obs.Counter
	batchReqs    *obs.Counter
	batchPlans   *obs.Counter
	observeReqs  *obs.Counter
	reloads      *obs.Counter
	errors       *obs.Counter
	planSeconds  *obs.Histogram
	batchSeconds *obs.Histogram
	batchItems   *obs.Histogram
}

// NewServer builds the v1 API over a registry.
func NewServer(reg *Registry, opts Options) *Server {
	if opts.MaxBatchItems <= 0 {
		opts.MaxBatchItems = DefaultMaxBatchItems
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		reg:      reg,
		maxBatch: opts.MaxBatchItems,
		maxBody:  opts.MaxBodyBytes,
		metrics:  obs.NewRegistry(),
	}
	s.met = serverMetrics{
		planReqs:     s.metrics.Counter("serve.plan.requests"),
		batchReqs:    s.metrics.Counter("serve.batch.requests"),
		batchPlans:   s.metrics.Counter("serve.batch.plans"),
		observeReqs:  s.metrics.Counter("serve.observe.requests"),
		reloads:      s.metrics.Counter("serve.registry.reloads"),
		errors:       s.metrics.Counter("serve.errors"),
		planSeconds:  s.metrics.Histogram("serve.plan.seconds", serveLatencyBounds),
		batchSeconds: s.metrics.Histogram("serve.batch.seconds", serveLatencyBounds),
		batchItems:   s.metrics.Histogram("serve.batch.items", []float64{1, 16, 256, 1024, 4096, 16384, 65536}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	mux.HandleFunc("GET /v1/clusters/{name}", s.handleClusterGet)
	mux.HandleFunc("PUT /v1/clusters/{name}", s.handleClusterPut)
	mux.HandleFunc("DELETE /v1/clusters/{name}", s.handleClusterDelete)
	s.mux = mux
	return s
}

// Registry returns the server's topology registry.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the serving layer's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Handler returns the HTTP handler of the v1 API. Every response carries
// the API-version header; requests naming a different version are
// rejected before dispatch.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(v1.APIVersionHeader, v1.Version)
		if got := r.Header.Get(v1.APIVersionHeader); got != "" && got != v1.Version {
			s.fail(w, http.StatusBadRequest, v1.ErrCodeVersionMismatch,
				fmt.Sprintf("request speaks API %q, this daemon serves %q", got, v1.Version))
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// fail writes the v1 error envelope.
func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	s.met.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding a flat struct of strings cannot fail; the write itself can
	// (client gone), which the server loop already surfaces.
	_ = enc.Encode(v1.ErrorEnvelope{Error: v1.ErrorBody{Code: code, Message: msg}})
}

// ok writes a 200 JSON response.
func (s *Server) ok(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// decode parses a JSON request body strictly (unknown fields rejected, so
// schema typos fail loudly instead of being silently ignored).
func decode(body io.Reader, into any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// resolve looks a cluster up, writing the error envelope on miss.
func (s *Server) resolve(w http.ResponseWriter, name string) (*Tenant, bool) {
	if name == "" {
		s.fail(w, http.StatusBadRequest, v1.ErrCodeBadRequest, "missing cluster name")
		return nil, false
	}
	t, ok := s.reg.Lookup(name)
	if !ok {
		s.fail(w, http.StatusNotFound, v1.ErrCodeUnknownCluster,
			fmt.Sprintf("cluster %q is not registered", name))
		return nil, false
	}
	return t, true
}

// planFor plans one query against a tenant.
func planFor(t *Tenant, src, dst int, bytes float64, pathSet string, concurrent [][2]int) (*core.Plan, *v1.ErrorBody) {
	sel, err := ucx.PathSetByName(pathSet)
	if err != nil {
		return nil, &v1.ErrorBody{Code: v1.ErrCodeBadRequest, Message: err.Error()}
	}
	pl, err := t.Context().PlanForSet(src, dst, bytes, sel, concurrent)
	if err != nil {
		return nil, &v1.ErrorBody{Code: v1.ErrCodePlanFailed, Message: err.Error()}
	}
	return pl, nil
}

// planResponse renders a plan as the v1 wire document.
func planResponse(cluster string, pl *core.Plan) *v1.PlanResponse {
	resp := &v1.PlanResponse{
		Cluster:          cluster,
		Src:              pl.Src,
		Dst:              pl.Dst,
		Bytes:            pl.Bytes,
		PredictedSeconds: pl.PredictedTime,
		PredictedGBps:    pl.PredictedBandwidth / 1e9,
		Paths:            make([]v1.PathAssignment, len(pl.Paths)),
	}
	for i, pp := range pl.Paths {
		resp.Paths[i] = v1.PathAssignment{
			Path:             pp.Path.String(),
			Kind:             pp.Path.Kind.String(),
			Via:              pp.Path.Via,
			Theta:            pp.Theta,
			Bytes:            pp.Bytes,
			Chunks:           pp.Chunks,
			PredictedSeconds: pp.Predicted,
		}
	}
	return resp
}

// doPlan answers one plan request (shared by HTTP and TCP fronts).
func (s *Server) doPlan(req *v1.PlanRequest) (*v1.PlanResponse, *v1.ErrorBody) {
	start := time.Now()
	s.met.planReqs.Inc()
	if req.Cluster == "" {
		return nil, &v1.ErrorBody{Code: v1.ErrCodeBadRequest, Message: "missing cluster name"}
	}
	t, ok := s.reg.Lookup(req.Cluster)
	if !ok {
		return nil, &v1.ErrorBody{Code: v1.ErrCodeUnknownCluster,
			Message: fmt.Sprintf("cluster %q is not registered", req.Cluster)}
	}
	pl, perr := planFor(t, req.Src, req.Dst, req.Bytes, req.PathSet, req.Concurrent)
	if perr != nil {
		return nil, perr
	}
	resp := planResponse(t.Name(), pl)
	s.met.planSeconds.Observe(time.Since(start).Seconds())
	return resp, nil
}

// doBatch answers a batch request into resp, reusing its Results storage
// (shared by HTTP and TCP fronts). On error resp is not an answer.
func (s *Server) doBatch(req *v1.BatchRequest, resp *v1.BatchResponse) *v1.ErrorBody {
	start := time.Now()
	s.met.batchReqs.Inc()
	if len(req.Items) == 0 {
		return &v1.ErrorBody{Code: v1.ErrCodeBadRequest, Message: "batch has no items"}
	}
	if len(req.Items) > s.maxBatch {
		return &v1.ErrorBody{Code: v1.ErrCodeBatchTooLarge,
			Message: fmt.Sprintf("batch of %d items exceeds the %d-item limit", len(req.Items), s.maxBatch)}
	}
	// Resolve the default tenant once — the registry pass every item
	// amortizes. Items naming another cluster resolve through a small
	// per-batch memo, so a thousand-item mixed batch still performs a
	// handful of registry lookups. The memo also pins each cluster to one
	// tenant generation for the whole batch: a hot reload landing
	// mid-batch does not split the batch across topologies.
	tenants := map[string]*Tenant{}
	if req.Cluster != "" {
		t, ok := s.reg.Lookup(req.Cluster)
		if !ok {
			return &v1.ErrorBody{Code: v1.ErrCodeUnknownCluster,
				Message: fmt.Sprintf("cluster %q is not registered", req.Cluster)}
		}
		tenants[req.Cluster] = t
	}
	results := slices.Grow(resp.Results[:0], len(req.Items))[:len(req.Items)]
	clear(results)
	*resp = v1.BatchResponse{Cluster: req.Cluster, Results: results}
	for i := range req.Items {
		it := &req.Items[i]
		name := it.Cluster
		if name == "" {
			name = req.Cluster
		}
		if name == "" {
			resp.Results[i].Error = &v1.ErrorBody{Code: v1.ErrCodeBadRequest, Message: "item names no cluster and the batch has no default"}
			resp.Failed++
			continue
		}
		t, ok := tenants[name]
		if !ok {
			t, ok = s.reg.Lookup(name)
			if !ok {
				resp.Results[i].Error = &v1.ErrorBody{Code: v1.ErrCodeUnknownCluster, Message: fmt.Sprintf("cluster %q is not registered", name)}
				resp.Failed++
				continue
			}
			tenants[name] = t
		}
		pl, perr := planFor(t, it.Src, it.Dst, it.Bytes, it.PathSet, nil)
		if perr != nil {
			resp.Results[i].Error = perr
			resp.Failed++
			continue
		}
		// The same expressions planResponse uses, so a detail and a
		// non-detail answer agree bit for bit.
		resp.Results[i].PredictedSeconds = pl.PredictedTime
		resp.Results[i].PredictedGBps = pl.PredictedBandwidth / 1e9
		if req.Detail {
			resp.Results[i].Plan = planResponse(t.Name(), pl)
		}
	}
	s.met.batchPlans.Add(int64(len(req.Items)))
	s.met.batchItems.Observe(float64(len(req.Items)))
	s.met.batchSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// httpStatusFor maps wire error codes to HTTP statuses.
func httpStatusFor(code string) int {
	switch code {
	case v1.ErrCodeUnknownCluster, v1.ErrCodeNotFound:
		return http.StatusNotFound
	case v1.ErrCodeBatchTooLarge:
		return http.StatusRequestEntityTooLarge
	case v1.ErrCodePlanFailed:
		return http.StatusUnprocessableEntity
	case v1.ErrCodeRecalDisabled:
		return http.StatusConflict
	case v1.ErrCodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req v1.PlanRequest
	if err := decode(r.Body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, v1.ErrCodeBadRequest, "decode plan request: "+err.Error())
		return
	}
	resp, perr := s.doPlan(&req)
	if perr != nil {
		s.fail(w, httpStatusFor(perr.Code), perr.Code, perr.Message)
		return
	}
	s.ok(w, resp)
}

// codecs holds the batch codecs of HTTP requests between uses.
var codecs = sync.Pool{New: func() any { return new(codec) }}

// handleBatch answers through the batch codec. A body it declines goes,
// over the same bytes, to the strict decoder; an answer it declines goes
// to the JSON encoder.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	c := codecs.Get().(*codec)
	defer func() {
		c.release()
		codecs.Put(c)
	}()
	body, whole := c.readBody(r.Body, s.maxBody)
	if !whole || !c.decodeBatch(body, s.maxBatch) {
		c.req = v1.BatchRequest{}
		if err := decode(io.MultiReader(bytes.NewReader(body), r.Body), &c.req); err != nil {
			s.fail(w, http.StatusBadRequest, v1.ErrCodeBadRequest, "decode batch request: "+err.Error())
			return
		}
	}
	if perr := s.doBatch(&c.req, &c.resp); perr != nil {
		s.fail(w, httpStatusFor(perr.Code), perr.Code, perr.Message)
		return
	}
	out, ok := appendBatch(c.out[:0], &c.resp)
	if !ok {
		s.ok(w, &c.resp)
		return
	}
	c.out = append(out, '\n') // as json.Encoder ends each document
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(c.out) // a failed write means the client is gone
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	s.met.observeReqs.Inc()
	var req v1.ObserveRequest
	if err := decode(r.Body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, v1.ErrCodeBadRequest, "decode observe request: "+err.Error())
		return
	}
	t, ok := s.resolve(w, req.Cluster)
	if !ok {
		return
	}
	observer := t.Context().Observer()
	if observer == nil {
		s.fail(w, http.StatusConflict, v1.ErrCodeRecalDisabled,
			fmt.Sprintf("cluster %q was registered without recalibration", req.Cluster))
		return
	}
	// Validate every kind before applying any sample: a feed with a typo
	// is rejected whole instead of half-applied.
	kinds := make([]hw.PathKind, len(req.Samples))
	for i, smp := range req.Samples {
		kind, err := hw.ParsePathKind(smp.Kind)
		if err != nil {
			s.fail(w, http.StatusBadRequest, v1.ErrCodeBadRequest,
				fmt.Sprintf("sample %d: %v", i, err))
			return
		}
		kinds[i] = kind
	}
	for i, smp := range req.Samples {
		observer.Record(kinds[i], smp.PredictedSeconds, smp.AchievedSeconds)
	}
	st := observer.Stats()
	resp := v1.ObserveResponse{
		Cluster:  t.Name(),
		Accepted: len(req.Samples),
		Samples:  st.Samples,
		Refits:   st.Refits,
	}
	if len(st.Scale) > 0 {
		resp.BetaScale = make(map[string]float64, len(st.Scale))
		for kind, scale := range st.Scale {
			resp.BetaScale[kind.String()] = scale
		}
	}
	s.ok(w, &resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := v1.StatsResponse{Version: v1.Version}
	if name := r.URL.Query().Get("cluster"); name != "" {
		t, ok := s.resolve(w, name)
		if !ok {
			return
		}
		resp.Clusters = []v1.ClusterStats{clusterStats(t)}
	} else {
		for _, t := range s.reg.Tenants() {
			resp.Clusters = append(resp.Clusters, clusterStats(t))
		}
	}
	snap := s.metrics.Snapshot()
	resp.Server = &snap
	s.ok(w, &resp)
}

func clusterStats(t *Tenant) v1.ClusterStats {
	return v1.ClusterStats{
		Name:       t.Name(),
		Generation: t.Generation(),
		Stats:      t.Context().StatsSnapshot(),
	}
}

func clusterInfo(t *Tenant, withTopology bool) v1.ClusterInfo {
	info := v1.ClusterInfo{
		Name:       t.Name(),
		Generation: t.Generation(),
		GPUs:       t.Spec().GPUs,
		NUMAs:      t.Spec().NUMAs,
	}
	if withTopology {
		info.Topology = t.SpecJSON()
	}
	return info
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	resp := v1.ClustersResponse{Clusters: []v1.ClusterInfo{}}
	for _, t := range s.reg.Tenants() {
		resp.Clusters = append(resp.Clusters, clusterInfo(t, false))
	}
	s.ok(w, &resp)
}

func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.ok(w, clusterInfo(t, true))
}

func (s *Server) handleClusterPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t, err := s.reg.RegisterJSON(name, r.Body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, v1.ErrCodeMalformedSpec, err.Error())
		return
	}
	s.met.reloads.Inc()
	s.ok(w, clusterInfo(t, false))
}

func (s *Server) handleClusterDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		s.fail(w, http.StatusNotFound, v1.ErrCodeUnknownCluster,
			fmt.Sprintf("cluster %q is not registered", name))
		return
	}
	s.ok(w, map[string]string{"removed": name})
}
