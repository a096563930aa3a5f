package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/serve"
	v1 "repro/internal/serve/v1"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// The serve workload load-tests a cmd/mpserve child process over its real
// HTTP and TCP listeners: one closed-loop client per transport, each
// sending pre-encoded 256-item batch requests. Every 64th HTTP request is
// instead a PUT of a cluster's own topology, which restarts that cluster's
// plan cache cold. (It can move answers by an ulp: the topology document
// carries latencies in microseconds, and x*1e6*1e-6 is not always x.) One
// op is one plan answered.

const (
	batchItems  = 256
	reloadEvery = 64
	// batchPool is how many distinct pre-encoded batches the clients
	// cycle through.
	batchPool   = 256
	serveSetups = 5
	// requestWindow is the measurement window (tail: 10 requests beyond,
	// p98), about half a second of load. Over eight 20 s runs the median of
	// the windows' tails spread 4 % (IQR / median), of windows of 1000
	// (p99) 10 %, and the whole run's tail (p99.95) 29 %.
	requestWindow = 500
	zipfSkew      = 1.1
	// daemonListen bounds how long mpserve may take to print both
	// listener addresses; requestLimit bounds one request's I/O.
	daemonListen = 10 * time.Second
	requestLimit = 30 * time.Second
)

// serveClusters are the daemon's default clusters; servePathSets every
// path set the wire accepts.
var (
	serveClusters = []string{"beluga", "narval"}
	servePathSets = []string{"direct", "2gpus", "3gpus", "3gpus_host", "all"}
)

// serveSizes is the message-size menu: 256 sizes spaced geometrically from
// 1 MiB to 1 GiB. With 12 ordered GPU pairs and 5 path sets that is 15360
// keys per cluster, and under the Zipf skew one cache generation touches
// more of them than the 4096-plan cache holds.
func serveSizes() []float64 {
	const n = 256
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(hw.MiB * math.Pow(1024, float64(i)/(n-1)))
	}
	return out
}

// serveKeys lists every (cluster, pair, size, path set) query in a seeded
// order; the order is the popularity rank.
func serveKeys(seed uint64) []v1.BatchItem {
	var keys []v1.BatchItem
	for _, cl := range serveClusters {
		g := hw.Presets[cl]().GPUs
		for s := 0; s < g; s++ {
			for d := 0; d < g; d++ {
				if s == d {
					continue
				}
				for _, size := range serveSizes() {
					for _, ps := range servePathSets {
						keys = append(keys, v1.BatchItem{Cluster: cl, Src: s, Dst: d, Bytes: size, PathSet: ps})
					}
				}
			}
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// serveBatches draws the batch pool: items with Zipf-skewed popularity
// over the seeded key order.
func serveBatches(seed uint64, keys []v1.BatchItem) []v1.BatchRequest {
	r := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	z := rand.NewZipf(r, zipfSkew, 1, uint64(len(keys)-1))
	out := make([]v1.BatchRequest, batchPool)
	for i := range out {
		items := make([]v1.BatchItem, batchItems)
		for j := range items {
			items[j] = keys[z.Uint64()]
		}
		out[i] = v1.BatchRequest{Items: items}
	}
	return out
}

// encoded is one batch ready to send on either transport.
type encoded struct {
	body  []byte // HTTP request body
	frame []byte // TCP frame: 4-byte big-endian length, then the JSON
}

func encodeBatch(req v1.BatchRequest) (encoded, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return encoded{}, err
	}
	payload, err := json.Marshal(v1.TCPRequest{Version: v1.Version, Batch: &req})
	if err != nil {
		return encoded{}, err
	}
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	return encoded{body: body, frame: frame}, nil
}

// serveInputs is everything the seed determines.
type serveInputs struct {
	batches []encoded
	probes  map[string]v1.BatchRequest
}

func makeServeInputs(seed uint64) (*serveInputs, error) {
	keys := serveKeys(seed)
	in := &serveInputs{probes: map[string]v1.BatchRequest{}}
	for _, b := range serveBatches(seed, keys) {
		e, err := encodeBatch(b)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, e)
	}
	// The probe asks every ordered pair for every path set, at sizes
	// spread over the menu, with full plan detail.
	sizes := serveSizes()
	for _, cl := range serveClusters {
		probe := v1.BatchRequest{Cluster: cl, Detail: true}
		g := hw.Presets[cl]().GPUs
		for s := 0; s < g; s++ {
			for d := 0; d < g; d++ {
				if s == d {
					continue
				}
				for _, ps := range servePathSets {
					size := sizes[(len(probe.Items)*37)%len(sizes)]
					probe.Items = append(probe.Items, v1.BatchItem{Src: s, Dst: d, Bytes: size, PathSet: ps})
				}
			}
		}
		in.probes[cl] = probe
	}
	return in, nil
}

// daemon is a running mpserve child.
type daemon struct {
	pid      int
	httpAddr string
	tcpAddr  string
	stop     func()
	exited   chan struct{}
}

// startDaemon execs mpserve on ephemeral ports and waits until it prints
// both listener addresses.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-tcp", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// Should this process die without running its exit paths, the kernel
	// still kills the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{pid: cmd.Process.Pid, exited: make(chan struct{})}
	d.stop = sync.OnceFunc(func() {
		_ = cmd.Process.Kill() // fails only if it already exited
		<-d.exited
	})
	addChild(d.stop)
	addrs := make(chan [2]string, 1)
	go func() {
		var a [2]string
		sent := false
		sc := bufio.NewScanner(out)
		for sc.Scan() { // drain until exit, so the daemon never blocks on stdout
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "mpserve: http listening on "); ok {
				a[0] = v
			} else if v, ok := strings.CutPrefix(line, "mpserve: tcp fast path listening on "); ok {
				a[1] = v
			}
			if !sent && a[0] != "" && a[1] != "" {
				addrs <- a
				sent = true
			}
		}
		_ = cmd.Wait() // the exit status of a killed daemon is expected
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.tcpAddr = a[0], a[1]
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("mpserve exited before listening")
	case <-time.After(daemonListen):
		d.stop()
		return nil, fmt.Errorf("mpserve printed no listener addresses within %v", daemonListen)
	}
}

// client is one keep-alive HTTP/1.1 connection to the daemon, driven by
// hand: a request is one write and http.ReadResponse parses the answer, so
// the client adds no transport goroutines beside the daemon's on the same
// two cores.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte // request bytes, reused
}

func newClient(d *daemon) (*client, error) {
	conn, err := net.Dial("tcp", d.httpAddr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *client) close() { c.conn.Close() }

// roundTrip sends one request and reads a 200 response's body into buf.
func (c *client) roundTrip(method, path string, body []byte, buf *bytes.Buffer) error {
	c.req = fmt.Appendf(c.req[:0], "%s %s HTTP/1.1\r\nHost: mpserve\r\n%s: %s\r\nContent-Length: %d\r\n\r\n",
		method, path, v1.APIVersionHeader, v1.Version, len(body))
	c.req = append(c.req, body...)
	if err := c.conn.SetDeadline(time.Now().Add(requestLimit)); err != nil {
		return err
	}
	if _, err := c.conn.Write(c.req); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// do sends one request and decodes a 200 response into out.
func (c *client) do(method, path string, body []byte, out any) error {
	var buf bytes.Buffer
	if err := c.roundTrip(method, path, body, &buf); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// checkBatch verifies one batch answer: no in-band error, every item
// answered with a positive prediction. It returns how many items failed.
func checkBatch(resp *v1.BatchResponse, items int) int {
	if resp == nil || len(resp.Results) != items {
		return items
	}
	bad := 0
	for _, r := range resp.Results {
		if r.Error != nil || !(r.PredictedSeconds > 0) {
			bad++
		}
	}
	if bad == 0 && resp.Failed != 0 {
		bad = resp.Failed
	}
	return bad
}

// bodies collects one client's answer bodies during a phase, each distinct
// body once with the number of times it arrived, so the full check of
// every answer runs after the clock stops instead of competing with the
// daemon for the same cores.
type bodies map[uint64][]collected

type collected struct {
	raw []byte
	n   int
}

func (b bodies) add(raw []byte) {
	h := fnv.New64a()
	h.Write(raw)
	key := h.Sum64()
	for i, c := range b[key] {
		if bytes.Equal(c.raw, raw) {
			b[key][i].n++
			return
		}
	}
	b[key] = append(b[key], collected{raw: append([]byte(nil), raw...), n: 1})
}

// check decodes every distinct body and returns how many items failed,
// counting each body as often as it arrived.
func (b bodies) check(decode func([]byte) (*v1.BatchResponse, error)) int {
	bad := 0
	for _, cs := range b {
		for _, c := range cs {
			resp, err := decode(c.raw)
			if err != nil {
				fmt.Printf("CHECK FAILED: batch answer: %v\n", err)
				bad += batchItems * c.n
				continue
			}
			if k := checkBatch(resp, batchItems); k > 0 {
				fmt.Printf("CHECK FAILED: batch answer with %d failed items, received %d times\n", k, c.n)
				bad += k * c.n
			}
		}
	}
	return bad
}

// presetRegistry registers the daemon's default clusters in-process, with
// the daemon's tenant configuration, from the same presets.
func presetRegistry() (*serve.Registry, error) {
	reg := serve.NewRegistry(serve.DefaultTenantConfig())
	for _, cl := range serveClusters {
		if _, err := reg.Register(cl, hw.Presets[cl]()); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// planItem answers one item in-process in the daemon's wire shape.
func planItem(reg *serve.Registry, cluster string, it v1.BatchItem) (*v1.PlanResponse, error) {
	t, ok := reg.Lookup(cluster)
	if !ok {
		return nil, fmt.Errorf("cluster %q not registered", cluster)
	}
	sel, err := ucx.PathSetByName(it.PathSet)
	if err != nil {
		return nil, err
	}
	pl, err := t.Context().PlanForSet(it.Src, it.Dst, it.Bytes, sel, nil)
	if err != nil {
		return nil, err
	}
	return wirePlan(cluster, pl), nil
}

// wirePlan renders a plan as the v1 wire document.
func wirePlan(cluster string, pl *core.Plan) *v1.PlanResponse {
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

// probe sends each cluster's probe batch and compares every answer with
// in-process planning, field for field. It returns the daemon's plans.
func (c *client) probe(in *serveInputs, ref *serve.Registry) (map[string][]*v1.PlanResponse, error) {
	plans := map[string][]*v1.PlanResponse{}
	for _, cl := range serveClusters {
		req := in.probes[cl]
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		var resp v1.BatchResponse
		if err := c.do("POST", "/v1/batch", body, &resp); err != nil {
			return nil, fmt.Errorf("probe %s: %w", cl, err)
		}
		if bad := checkBatch(&resp, len(req.Items)); bad > 0 {
			return nil, fmt.Errorf("probe %s: %d items failed", cl, bad)
		}
		for i, it := range req.Items {
			want, err := planItem(ref, cl, it)
			if err != nil {
				return nil, fmt.Errorf("probe %s: in-process: %w", cl, err)
			}
			got := resp.Results[i]
			if !reflect.DeepEqual(got.Plan, want) || got.PredictedSeconds != want.PredictedSeconds || got.PredictedGBps != want.PredictedGBps {
				return nil, fmt.Errorf("probe %s item %d: daemon answered %+v, in-process planning %+v", cl, i, got.Plan, want)
			}
			plans[cl] = append(plans[cl], got.Plan)
		}
	}
	return plans, nil
}

// served is a daemon after set-up.
type served struct {
	d        *daemon
	c        *client
	topology map[string][]byte
	probed   map[string][]*v1.PlanResponse
}

// setupServe starts a daemon and brings it to the measured state: both
// listeners up, both clusters listed, probes checked, the pool warmed.
func setupServe(cfg config, in *serveInputs, ref *serve.Registry) (*served, error) {
	d, err := startDaemon(cfg.mpserve)
	if err != nil {
		return nil, err
	}
	s, err := prepare(d, in, ref)
	if err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// prepare checks a listening daemon and warms it: both clusters listed,
// their topologies read, the probes compared, and every batch of the pool
// sent once, so the measured phase starts in the steady state the clients
// keep cycling through rather than in the daemon's one-time cold start.
func prepare(d *daemon, in *serveInputs, ref *serve.Registry) (*served, error) {
	c, err := newClient(d)
	if err != nil {
		return nil, err
	}
	s := &served{d: d, c: c, topology: map[string][]byte{}}
	var list v1.ClustersResponse
	if err := s.c.do("GET", "/v1/clusters", nil, &list); err != nil {
		return nil, err
	}
	if len(list.Clusters) != len(serveClusters) {
		return nil, fmt.Errorf("daemon lists %d clusters, want %v", len(list.Clusters), serveClusters)
	}
	for _, cl := range serveClusters {
		var info v1.ClusterInfo
		if err := s.c.do("GET", "/v1/clusters/"+cl, nil, &info); err != nil {
			return nil, err
		}
		s.topology[cl] = info.Topology
	}
	if s.probed, err = s.c.probe(in, ref); err != nil {
		return nil, err
	}
	for _, e := range in.batches {
		var resp v1.BatchResponse
		if err := s.c.do("POST", "/v1/batch", e.body, &resp); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		if bad := checkBatch(&resp, batchItems); bad > 0 {
			return nil, fmt.Errorf("warm pass: %d items failed", bad)
		}
	}
	return s, nil
}

// probeExecution runs every probe plan the daemon served on a simulated
// node of the same preset and compares achieved with predicted bandwidth:
// the model error of what the daemon hands out, and the simulated
// goodput of following its advice.
func probeExecution(plans map[string][]*v1.PlanResponse, in *serveInputs) (errPct, gbps float64, err error) {
	var errSum, bytes, secs float64
	var n int
	for _, cl := range serveClusters {
		s := sim.New()
		node, err := hw.Build(s, hw.Presets[cl]())
		if err != nil {
			return 0, 0, err
		}
		ctx, err := ucx.NewContext(cuda.NewRuntime(node), serve.DefaultTenantConfig())
		if err != nil {
			return 0, 0, err
		}
		for i, it := range in.probes[cl].Items {
			sel, err := ucx.PathSetByName(it.PathSet)
			if err != nil {
				return 0, 0, err
			}
			req, err := ctx.StartTransfer(it.Src, it.Dst, it.Bytes, sel)
			if err != nil {
				return 0, 0, err
			}
			if err := s.Run(); err != nil {
				return 0, 0, err
			}
			if !req.Done.Fired() || req.Done.Err() != nil || req.Elapsed() <= 0 {
				return 0, 0, fmt.Errorf("probe transfer %s %+v did not complete", cl, it)
			}
			achieved := it.Bytes / req.Elapsed()
			errSum += math.Abs(achieved/(plans[cl][i].PredictedGBps*1e9) - 1)
			n++
			bytes += it.Bytes
			secs += req.Elapsed()
		}
	}
	return 100 * errSum / float64(n), bytes / secs / 1e9, nil
}

// planCounters is one cluster's plan-cache counters in one generation.
type planCounters struct{ hits, misses, evictions, merges int64 }

func (p *planCounters) add(st core.CacheStats, sign int64) {
	p.hits += sign * st.Hits
	p.misses += sign * st.Misses
	p.evictions += sign * st.Evictions
	p.merges += sign * st.InflightMerges
}

// statsSum sums /v1/stats plan-cache counters across generations: the
// counters restart with every reload, so each generation's final reading
// (taken just before its PUT) is added, and the readings at the phase
// start subtracted.
type statsSum struct {
	mu     sync.Mutex
	total  planCounters
	server v1.StatsResponse // last full reading
}

func (s *statsSum) read(c *client, cluster string, sign int64) error {
	var st v1.StatsResponse
	path := "/v1/stats"
	if cluster != "" {
		path += "?cluster=" + cluster
	}
	if err := c.do("GET", path, nil, &st); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cs := range st.Clusters {
		s.total.add(cs.Stats.PlanCache, sign)
	}
	if cluster == "" {
		s.server = st
	}
	return nil
}

// logEntry is one request the clients sent, for the in-process replay.
type logEntry struct {
	batch  int    // index into the batch pool, or -1 for a reload
	reload string // cluster reloaded
}

// servePhase is one closed-loop measurement. Both client goroutines
// record into it.
type servePhase struct {
	logging  bool      // keep the request log for the replay
	budget   float64   // seconds of clean windows to measure
	hardStop time.Time // stretch times the budget after the start

	mu            sync.Mutex
	plans, failed int64
	secs          []float64 // per batch request, both transports
	httpSecs      []float64
	tcpSecs       []float64
	reloadSecs    []float64
	log           []logEntry
	clock         windowClock
	open          []float64     // the open window's request times
	windows       []timedWindow // whole windows of requestWindow requests
	clean         float64       // seconds the clean windows cover
	cpuErr        error         // from reading the daemon's CPU time

	cpu     float64 // daemon CPU seconds
	stats   statsSum
	server0 v1.StatsResponse // reading at the phase start
}

// batch records one answered batch request.
func (ph *servePhase) batch(secs float64, perTransport *[]float64, k, bad int) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.secs = append(ph.secs, secs)
	*perTransport = append(*perTransport, secs)
	ph.plans += batchItems
	ph.failed += int64(bad)
	if ph.logging {
		ph.log = append(ph.log, logEntry{batch: k})
	}
	ph.open = append(ph.open, secs)
	if len(ph.open) == requestWindow {
		w := ph.clock.close(ph.open, requestWindow*batchItems)
		ph.windows = append(ph.windows, w)
		if w.clean() {
			ph.clean += w.wall
		}
		ph.open = nil
	}
}

// stopped reports whether the clean windows cover the budget or the
// stretch has run out.
func (ph *servePhase) stopped() bool {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.clean >= ph.budget || time.Now().After(ph.hardStop)
}

// reload records one topology PUT.
func (ph *servePhase) reload(secs float64, cluster string) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.reloadSecs = append(ph.reloadSecs, secs)
	if ph.logging {
		ph.log = append(ph.log, logEntry{batch: -1, reload: cluster})
	}
}

// load runs both closed-loop clients until the clean windows cover budget
// seconds or stretch times the budget has passed.
func (s *served) load(in *serveInputs, budget float64, logging bool) (*servePhase, error) {
	ph := &servePhase{logging: logging, budget: budget}
	if err := ph.stats.read(s.c, "", -1); err != nil {
		return nil, err
	}
	ph.server0 = ph.stats.server
	conn, err := net.Dial("tcp", s.d.tcpAddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	cpu0, err := procCPU(s.d.pid)
	if err != nil {
		return nil, err
	}
	ph.clock = windowClock{cpu: func() float64 {
		c, err := procCPU(s.d.pid)
		if err != nil && ph.cpuErr == nil {
			ph.cpuErr = err
		}
		return c
	}}
	ph.clock.open()
	ph.hardStop = time.Now().Add(time.Duration(stretch * budget * float64(time.Second)))
	errc := make(chan error, 2)
	go func() { errc <- s.httpLoop(in, ph) }()
	go func() { errc <- tcpLoop(conn, in, ph) }()
	var firstErr error
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = ph.cpuErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	cpu1, err := procCPU(s.d.pid)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if err := ph.stats.read(s.c, "", 1); err != nil {
		return nil, err
	}
	return ph, nil
}

func (s *served) httpLoop(in *serveInputs, ph *servePhase) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("http client: panic: %v", p)
		}
	}()
	var buf bytes.Buffer
	got := bodies{}
	for i := 1; !ph.stopped(); i++ {
		if i%reloadEvery == 0 {
			cl := serveClusters[(i/reloadEvery)%len(serveClusters)]
			if err := ph.stats.read(s.c, cl, 1); err != nil {
				return err
			}
			start := time.Now()
			var info v1.ClusterInfo
			if err := s.c.do("PUT", "/v1/clusters/"+cl, s.topology[cl], &info); err != nil {
				return fmt.Errorf("reload %s: %w", cl, err)
			}
			ph.reload(time.Since(start).Seconds(), cl)
			continue
		}
		k := i % len(in.batches)
		start := time.Now()
		err := s.c.roundTrip("POST", "/v1/batch", in.batches[k].body, &buf)
		d := time.Since(start).Seconds()
		bad := 0
		if err != nil {
			fmt.Printf("CHECK FAILED: http batch: %v\n", err)
			bad = batchItems
		} else {
			got.add(buf.Bytes())
		}
		ph.batch(d, &ph.httpSecs, k, bad)
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed += int64(got.check(func(raw []byte) (*v1.BatchResponse, error) {
		var resp v1.BatchResponse
		return &resp, json.Unmarshal(raw, &resp)
	}))
	return nil
}

func tcpLoop(conn net.Conn, in *serveInputs, ph *servePhase) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("tcp client: panic: %v", p)
		}
	}()
	var hdr [4]byte
	var payload []byte
	got := bodies{}
	for i := len(in.batches) / 2; !ph.stopped(); i++ {
		k := i % len(in.batches)
		if err := conn.SetDeadline(time.Now().Add(requestLimit)); err != nil {
			return err
		}
		start := time.Now()
		if _, err := conn.Write(in.batches[k].frame); err != nil {
			return fmt.Errorf("tcp write: %w", err)
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return fmt.Errorf("tcp read: %w", err)
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(conn, payload); err != nil {
			return fmt.Errorf("tcp read: %w", err)
		}
		d := time.Since(start).Seconds()
		got.add(payload)
		ph.batch(d, &ph.tcpSecs, k, 0)
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed += int64(got.check(func(raw []byte) (*v1.BatchResponse, error) {
		var resp v1.TCPResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		if resp.Error != nil {
			return nil, resp.Error
		}
		return resp.Batch, nil
	}))
	return nil
}

func runServe(cfg config, rep *report) error {
	in, err := makeServeInputs(cfg.seed)
	if err != nil {
		return err
	}
	ref, err := presetRegistry()
	if err != nil {
		return err
	}
	s, setup, err := medianSetup(serveSetups,
		func() (*served, error) { return setupServe(cfg, in, ref) },
		func(s *served) { s.d.stop() })
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.d.stop()
	rep.set("setup_s", setup, "s")
	rep.notef("set-up (daemon exec, listeners, cluster list, probes, warm pass): median of %d = %.6f s", serveSetups, setup)
	errPct, gbps, err := probeExecution(s.probed, in)
	if err != nil {
		return err
	}
	rep.notef("probe plans executed on the simulator: mean |achieved/predicted-1| = %.4f%%, goodput %.4f GB/s", errPct, gbps)

	if cfg.trace {
		return traceServe(cfg, rep, s, in)
	}
	ph, err := s.load(in, cfg.seconds, false)
	if err != nil {
		return err
	}
	rep.attempted += ph.plans
	rep.failed += ph.failed
	if err := setWindowed(rep, "batch request", ph.windows, cfg.seconds); err != nil {
		return err
	}
	rss, err := peakRSSMB(fmt.Sprint(s.d.pid))
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("pred_err_pct", errPct, "%")
	rep.set("sim_gbps", gbps, "GB/s")
	rep.notef("%d plans in %d batch requests (%d http, %d tcp), %d failed, %d reloads, daemon %.3f CPU-s",
		ph.plans, len(ph.secs), len(ph.httpSecs), len(ph.tcpSecs), ph.failed, len(ph.reloadSecs), ph.cpu)
	return nil
}

// traceServe runs a traced half of the budget against the daemon between
// two untraced quarters (which give the tracing overhead), then replays
// the traced half's requests in-process under the CPU profiler with spans
// around decode, planning, the handler and encode.
func traceServe(cfg config, rep *report, s *served, in *serveInputs) error {
	zeroPerLayer(rep)
	var base [2]*servePhase
	var ph *servePhase
	var err error
	for i, tr := range []bool{false, true, false} {
		var p *servePhase
		budget := cfg.seconds / 4
		if tr {
			budget = cfg.seconds / 2
		}
		if p, err = s.load(in, budget, tr); err != nil {
			return err
		}
		rep.attempted += p.plans
		rep.failed += p.failed
		if tr {
			ph = p
		} else {
			base[i/2] = p
		}
	}
	untraced := float64(base[0].plans+base[1].plans-base[0].failed-base[1].failed) / (base[0].cpu + base[1].cpu)
	setOverhead(rep, untraced, float64(ph.plans-ph.failed)/ph.cpu)

	tot := ph.stats.total
	if n := tot.hits + tot.misses; n > 0 {
		rep.set("core.plan_hit_ratio", float64(tot.hits)/float64(n), "ratio")
	}
	rep.set("core.plan_misses_per_op", float64(tot.misses)/float64(ph.plans), "count")
	rep.set("core.plan_evictions", float64(tot.evictions), "count")
	rep.set("core.inflight_merges", float64(tot.merges), "count")
	srv0, srv1 := ph.server0.Server, ph.stats.server.Server
	if srv0 != nil && srv1 != nil {
		h0, h1 := srv0.Histograms["serve.batch.seconds"], srv1.Histograms["serve.batch.seconds"]
		if n := h1.Count - h0.Count; n > 0 {
			rep.set("serve.server_batch_ms", 1e3*(h1.Sum-h0.Sum)/float64(n), "ms")
		}
		rep.set("serve.errors", float64(srv1.Counters["serve.errors"]-srv0.Counters["serve.errors"]), "count")
		rep.set("serve.reloads", float64(srv1.Counters["serve.registry.reloads"]-srv0.Counters["serve.registry.reloads"]), "count")
	}
	rep.set("serve.http_p50_ms", 1e3*median(ph.httpSecs), "ms")
	rep.set("serve.tcp_p50_ms", 1e3*median(ph.tcpSecs), "ms")
	rep.set("serve.reload_ms", 1e3*median(ph.reloadSecs), "ms")
	roundTrip := median(ph.secs)
	rep.notef("daemon phase: %d plans, %d requests (%d http, %d tcp), %d reloads; plan cache over generations: %d hits, %d misses, %d evictions",
		ph.plans, len(ph.secs), len(ph.httpSecs), len(ph.tcpSecs), len(ph.reloadSecs), tot.hits, tot.misses, tot.evictions)

	return replay(cfg, rep, in, s.topology, ph.log, roundTrip)
}

// replay answers the logged requests in-process twice: once decomposed
// into decode, per-item PlanForSet and encode, once through
// Server.Handler().ServeHTTP. Each path has its own registry, so each sees
// the same cache history the daemon saw.
func replay(cfg config, rep *report, in *serveInputs, topology map[string][]byte, log []logEntry, roundTrip float64) error {
	parts, err := presetRegistry()
	if err != nil {
		return err
	}
	whole, err := presetRegistry()
	if err != nil {
		return err
	}
	srv := serve.NewServer(whole, serve.Options{}).Handler()
	tr := newSpans()
	var plans, failed int64
	rt0 := readRuntime()
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	a, err := cpuProfile(func() error {
		for _, e := range log {
			if time.Now().After(deadline) {
				break
			}
			if e.batch < 0 {
				if _, err := parts.RegisterJSON(e.reload, bytes.NewReader(topology[e.reload])); err != nil {
					return err
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/clusters/"+e.reload, bytes.NewReader(topology[e.reload])))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("replay reload %s: status %d", e.reload, rec.Code)
				}
				continue
			}
			body := in.batches[e.batch].body
			want, bad, err := replayParts(tr, parts, body)
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
			sp := tr.begin("Handler.ServeHTTP", -1)
			srv.ServeHTTP(rec, req)
			tr.end(sp)
			// The handler encodes the same document plus a newline; equal
			// bytes check its answers without decoding them here.
			if rec.Code != http.StatusOK || !bytes.Equal(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), want) {
				fmt.Printf("CHECK FAILED: replayed batch %d: handler answer differs from in-process planning\n", e.batch)
				bad += batchItems
			}
			plans += 2 * batchItems
			failed += int64(bad)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	rep.attempted += plans
	rep.failed += failed
	stats := summarize(tr)
	printSpans(rep, stats)
	rep.notef("in-process replay: %d plans (each logged batch answered decomposed and through the handler)", plans)
	setSelfTimes(rep, a, plans)
	setRuntime(rep, rt0, rt1, plans)
	us := func(name string) float64 {
		if st := stats[name]; st != nil {
			return float64(st.p50) / 1e3
		}
		return 0
	}
	rep.set("serve.decode_us", us("decode"), "us")
	rep.set("serve.encode_us", us("encode"), "us")
	handler := us("Handler.ServeHTTP")
	rep.set("serve.handler_us", handler, "us")
	rep.set("serve.wire_us", roundTrip*1e6-handler, "us")
	if st := stats["PlanForSet"]; st != nil {
		rep.set("core.plan_us", float64(st.total)/1e3/float64(st.count*batchItems), "us")
	}
	return nil
}

// replayParts answers one batch body decomposed, with a span per stage.
// It returns the encoded response and the number of failed items.
func replayParts(tr *spans, reg *serve.Registry, body []byte) ([]byte, int, error) {
	sp := tr.begin("decode", -1)
	var req v1.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("replay decode: %w", err)
	}
	resp := v1.BatchResponse{Results: make([]v1.BatchResult, len(req.Items))}
	sp = tr.begin("PlanForSet", -1)
	for i, it := range req.Items {
		pl, err := planItem(reg, it.Cluster, it)
		if err != nil {
			resp.Results[i].Error = &v1.ErrorBody{Code: v1.ErrCodePlanFailed, Message: err.Error()}
			resp.Failed++
			continue
		}
		resp.Results[i].PredictedSeconds = pl.PredictedSeconds
		resp.Results[i].PredictedGBps = pl.PredictedGBps
	}
	tr.end(sp)
	sp = tr.begin("encode", -1)
	out, err := json.Marshal(&resp)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	return out, checkBatch(&resp, len(req.Items)), nil
}
