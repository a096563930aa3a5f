package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/hw"
	v1 "repro/internal/serve/v1"
)

func newTestServer(t testing.TB, clusters ...string) (*Server, *httptest.Server) {
	t.Helper()
	if len(clusters) == 0 {
		clusters = []string{"beluga"}
	}
	reg := NewRegistry(DefaultTenantConfig())
	for _, name := range clusters {
		mk, ok := hw.Presets[name]
		if !ok {
			t.Fatalf("unknown preset %q", name)
		}
		if _, err := reg.Register(name, mk()); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(reg, Options{MaxBatchItems: 64})
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	return srv, hts
}

func doJSON(t *testing.T, client *http.Client, method, url string, hdr map[string]string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHandlerErrors is the wire-contract table: every failure mode must
// return its documented status and error code in the v1 envelope.
func TestHandlerErrors(t *testing.T) {
	_, hts := newTestServer(t)
	bigBatch := func() string {
		items := make([]string, 65)
		for i := range items {
			items[i] = `{"src":0,"dst":1,"bytes":1048576}`
		}
		return fmt.Sprintf(`{"cluster":"beluga","items":[%s]}`, strings.Join(items, ","))
	}()
	cases := []struct {
		name       string
		method     string
		path       string
		header     map[string]string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"unknown cluster plan", "POST", "/v1/plan", nil,
			`{"cluster":"nope","src":0,"dst":1,"bytes":1048576}`,
			http.StatusNotFound, v1.ErrCodeUnknownCluster},
		{"missing cluster plan", "POST", "/v1/plan", nil,
			`{"src":0,"dst":1,"bytes":1048576}`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"malformed plan body", "POST", "/v1/plan", nil,
			`{"cluster":`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"unknown field rejected", "POST", "/v1/plan", nil,
			`{"cluster":"beluga","src":0,"dst":1,"bytes":1048576,"sizzle":9}`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"bad path set", "POST", "/v1/plan", nil,
			`{"cluster":"beluga","src":0,"dst":1,"bytes":1048576,"pathset":"warp"}`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"plan src==dst", "POST", "/v1/plan", nil,
			`{"cluster":"beluga","src":1,"dst":1,"bytes":1048576}`,
			http.StatusUnprocessableEntity, v1.ErrCodePlanFailed},
		{"plan of an underflowing size", "POST", "/v1/plan", nil,
			`{"cluster":"beluga","src":0,"dst":1,"bytes":5e-324,"pathset":"direct"}`,
			http.StatusUnprocessableEntity, v1.ErrCodePlanFailed},
		{"version mismatch", "POST", "/v1/plan", map[string]string{v1.APIVersionHeader: "v9"},
			`{"cluster":"beluga","src":0,"dst":1,"bytes":1048576}`,
			http.StatusBadRequest, v1.ErrCodeVersionMismatch},
		{"empty batch", "POST", "/v1/batch", nil,
			`{"cluster":"beluga","items":[]}`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"oversized batch", "POST", "/v1/batch", nil, bigBatch,
			http.StatusRequestEntityTooLarge, v1.ErrCodeBatchTooLarge},
		{"batch unknown field", "POST", "/v1/batch", nil,
			`{"cluster":"beluga","items":[{"src":0,"dst":1,"bytes":1048576}],"sizzle":9}`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"batch item unknown field", "POST", "/v1/batch", nil,
			`{"cluster":"beluga","items":[{"src":0,"dst":1,"bytes":1048576,"sizzle":9}]}`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"batch unknown default cluster", "POST", "/v1/batch", nil,
			`{"cluster":"nope","items":[{"src":0,"dst":1,"bytes":1048576}]}`,
			http.StatusNotFound, v1.ErrCodeUnknownCluster},
		{"malformed spec on reload", "PUT", "/v1/clusters/bad", nil,
			`{"name":"x","gpus":0}`,
			http.StatusBadRequest, v1.ErrCodeMalformedSpec},
		{"spec with unknown field", "PUT", "/v1/clusters/bad", nil,
			`{"name":"x","gpus":2,"numas":1,"gpu_numa":[0,0],"pcie":[{"bandwidth_gbps":1}],"mem":[{"bandwidth_gbps":1}],"quantum_links":[]}`,
			http.StatusBadRequest, v1.ErrCodeMalformedSpec},
		{"observe unknown cluster", "POST", "/v1/observe", nil,
			`{"cluster":"nope","samples":[]}`,
			http.StatusNotFound, v1.ErrCodeUnknownCluster},
		{"observe bad kind", "POST", "/v1/observe", nil,
			`{"cluster":"beluga","samples":[{"kind":"quantum","predicted_s":1,"achieved_s":2}]}`,
			http.StatusBadRequest, v1.ErrCodeBadRequest},
		{"stats unknown cluster", "GET", "/v1/stats?cluster=nope", nil, "",
			http.StatusNotFound, v1.ErrCodeUnknownCluster},
		{"get unknown cluster", "GET", "/v1/clusters/nope", nil, "",
			http.StatusNotFound, v1.ErrCodeUnknownCluster},
		{"delete unknown cluster", "DELETE", "/v1/clusters/nope", nil, "",
			http.StatusNotFound, v1.ErrCodeUnknownCluster},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, hts.Client(), tc.method, hts.URL+tc.path, tc.header, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.wantStatus, body)
			}
			if got := resp.Header.Get(v1.APIVersionHeader); got != v1.Version {
				t.Fatalf("version header = %q, want %q", got, v1.Version)
			}
			var env v1.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("not an error envelope: %s", body)
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q (%s)", env.Error.Code, tc.wantCode, env.Error.Message)
			}
		})
	}
}

// TestReloadRejectsNUMASplitWithoutInter checks that a PUT of a topology
// whose NVLink peers sit in two NUMA domains with no Inter link between
// them answers malformed_spec. Such a spec used to load, and the next
// host-staged plan for the pair panicked the daemon. The tenant keeps
// planning on its previous topology.
func TestReloadRejectsNUMASplitWithoutInter(t *testing.T) {
	_, hts := newTestServer(t, "narval")
	sp := hw.Narval()
	sp.Inter = map[hw.Pair]hw.LinkProps{}
	var spec bytes.Buffer
	if err := sp.WriteJSON(&spec); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, hts.Client(), "PUT", hts.URL+"/v1/clusters/narval", nil, spec.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, http.StatusBadRequest, body)
	}
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	if env.Error.Code != v1.ErrCodeMalformedSpec {
		t.Fatalf("code = %q, want %q (%s)", env.Error.Code, v1.ErrCodeMalformedSpec, env.Error.Message)
	}
	resp, body = doJSON(t, hts.Client(), "POST", hts.URL+"/v1/plan", nil,
		`{"cluster":"narval","src":0,"dst":3,"bytes":67108864,"pathset":"all"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("host-path plan after the refused reload: %d %s", resp.StatusCode, body)
	}
}

// TestPutOversizeTopologyAllocatesLittle checks that a small PUT body
// announcing a million GPUs is refused as malformed_spec before the loader
// replicates its single pcie entry per announced GPU.
func TestPutOversizeTopologyAllocatesLittle(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"name":"huge","gpus":1000000,"numas":1,"gpu_numa":[0,0],` +
		`"pcie":[{"bandwidth_gbps":16,"latency_us":1}],"mem":[{"bandwidth_gbps":50,"latency_us":0.1}]}`
	req := httptest.NewRequest("PUT", "/v1/clusters/huge", strings.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a %d-byte body announcing 10^6 GPUs allocated %d bytes", len(body), alloc)
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want %d (%s)", rec.Code, http.StatusBadRequest, rec.Body)
	}
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("not an error envelope: %s", rec.Body)
	}
	if env.Error.Code != v1.ErrCodeMalformedSpec {
		t.Fatalf("code = %q, want %q (%s)", env.Error.Code, v1.ErrCodeMalformedSpec, env.Error.Message)
	}
}

// TestPlanAndBatchHappyPath exercises the success contract: single plans,
// compact batches, and detail batches all agree on the prediction.
func TestPlanAndBatchHappyPath(t *testing.T) {
	_, hts := newTestServer(t, "beluga", "narval")
	resp, body := doJSON(t, hts.Client(), "POST", hts.URL+"/v1/plan", nil,
		`{"cluster":"beluga","src":0,"dst":1,"bytes":67108864}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, body)
	}
	var pr v1.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.PredictedSeconds <= 0 || len(pr.Paths) == 0 {
		t.Fatalf("plan = %+v", pr)
	}

	// Item 3's size underflows the solver: it fails in-band like item 2,
	// in detail and non-detail batches alike.
	items := `[
			{"cluster":"beluga","src":0,"dst":1,"bytes":67108864},
			{"cluster":"narval","src":0,"dst":1,"bytes":67108864},
			{"cluster":"beluga","src":2,"dst":2,"bytes":1},
			{"cluster":"beluga","src":0,"dst":1,"bytes":5e-324}
		]`
	batch := func(detail bool) v1.BatchResponse {
		t.Helper()
		resp, body := doJSON(t, hts.Client(), "POST", hts.URL+"/v1/batch", nil,
			fmt.Sprintf(`{"items":%s,"detail":%t}`, items, detail))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d %s", resp.StatusCode, body)
		}
		var br v1.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatalf("batch answer %q: %v", body, err)
		}
		if len(br.Results) != 4 || br.Failed != 2 {
			t.Fatalf("batch = %+v", br)
		}
		for _, i := range []int{2, 3} {
			if br.Results[i].Error == nil || br.Results[i].Error.Code != v1.ErrCodePlanFailed {
				t.Fatalf("item %d error = %+v", i, br.Results[i].Error)
			}
		}
		return br
	}
	br := batch(true)
	if br.Results[0].PredictedSeconds != pr.PredictedSeconds {
		t.Fatalf("batch item 0 prediction %g != single plan %g", br.Results[0].PredictedSeconds, pr.PredictedSeconds)
	}
	if br.Results[0].Plan == nil || len(br.Results[0].Plan.Paths) == 0 {
		t.Fatal("detail batch lost the per-path assignment")
	}
	compact := batch(false)
	for i := range compact.Results {
		got, want := compact.Results[i], br.Results[i]
		if got.Plan != nil {
			t.Fatalf("item %d: non-detail batch carries a plan", i)
		}
		if math.Float64bits(got.PredictedSeconds) != math.Float64bits(want.PredictedSeconds) ||
			math.Float64bits(got.PredictedGBps) != math.Float64bits(want.PredictedGBps) {
			t.Fatalf("item %d: non-detail %v s %v GB/s, detail %v s %v GB/s", i,
				got.PredictedSeconds, got.PredictedGBps, want.PredictedSeconds, want.PredictedGBps)
		}
	}
}

// TestClusterLifecycle covers register → list → get → reload → delete,
// including the generation counter and canonical-topology round trip.
func TestClusterLifecycle(t *testing.T) {
	srv, hts := newTestServer(t, "beluga")
	// GET the topology, then PUT it back verbatim: a reload from the
	// canonical serialization must succeed and bump the generation.
	resp, body := doJSON(t, hts.Client(), "GET", hts.URL+"/v1/clusters/beluga", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d %s", resp.StatusCode, body)
	}
	var info v1.ClusterInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || len(info.Topology) == 0 {
		t.Fatalf("info = %+v", info)
	}
	before, ok := srv.Registry().Lookup("beluga")
	if !ok {
		t.Fatal("cluster missing")
	}
	canonical := before.SpecJSON()
	resp, body = doJSON(t, hts.Client(), "PUT", hts.URL+"/v1/clusters/beluga", nil, string(info.Topology))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	var reloaded v1.ClusterInfo
	if err := json.Unmarshal(body, &reloaded); err != nil {
		t.Fatal(err)
	}
	if reloaded.Generation != 2 {
		t.Fatalf("generation after reload = %d, want 2", reloaded.Generation)
	}
	// The reloaded tenant's canonical serialization must match the
	// previous generation's byte for byte (the hw round-trip contract,
	// through the API; the wire form itself is compacted by encoding/json
	// when the RawMessage is embedded, so compare canonical to canonical).
	tn, ok := srv.Registry().Lookup("beluga")
	if !ok {
		t.Fatal("cluster lost after reload")
	}
	if !bytes.Equal(tn.SpecJSON(), canonical) {
		t.Fatal("canonical topology drifted across reload")
	}

	resp, body = doJSON(t, hts.Client(), "GET", hts.URL+"/v1/clusters", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	var list v1.ClustersResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Clusters) != 1 || list.Clusters[0].Name != "beluga" {
		t.Fatalf("list = %+v", list)
	}

	resp, _ = doJSON(t, hts.Client(), "DELETE", hts.URL+"/v1/clusters/beluga", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if _, ok := srv.Registry().Lookup("beluga"); ok {
		t.Fatal("cluster still registered after delete")
	}
}

// TestObserveAndStats feeds recalibration samples and reads them back from
// the stats endpoint.
func TestObserveAndStats(t *testing.T) {
	_, hts := newTestServer(t, "beluga")
	var samples []string
	// Consistent 25% underprediction; enough volume to trigger a refit.
	for i := 0; i < 64; i++ {
		samples = append(samples, `{"kind":"direct","predicted_s":0.008,"achieved_s":0.010}`)
	}
	resp, body := doJSON(t, hts.Client(), "POST", hts.URL+"/v1/observe", nil,
		fmt.Sprintf(`{"cluster":"beluga","samples":[%s]}`, strings.Join(samples, ",")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	var or v1.ObserveResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Accepted != 64 || or.Samples != 64 {
		t.Fatalf("observe = %+v", or)
	}
	// Achieved > predicted (class slower than modelled) shrinks the β
	// scale below 1; a constant synthetic drift refits once per window.
	if or.Refits == 0 || or.BetaScale["direct"] >= 1 || or.BetaScale["direct"] <= 0 {
		t.Fatalf("expected refits with 0 < beta_scale[direct] < 1, got %+v", or)
	}

	resp, body = doJSON(t, hts.Client(), "GET", hts.URL+"/v1/stats?cluster=beluga", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var st v1.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Clusters) != 1 || st.Clusters[0].Stats.Observer == nil {
		t.Fatalf("stats = %+v", st)
	}
	if st.Clusters[0].Stats.Observer.Samples != 64 {
		t.Fatalf("observer samples = %d, want 64", st.Clusters[0].Stats.Observer.Samples)
	}
	if st.Server == nil || st.Server.Counters["serve.observe.requests"] != 1 {
		t.Fatalf("server metrics = %+v", st.Server)
	}
}

// TestTCPRoundTrip drives the fast path end to end: plan and batch frames
// on one persistent connection, plus in-band error handling.
func TestTCPRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, "beluga")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTCPServer(srv)
	go func() { _ = ts.Serve(ln) }()
	t.Cleanup(func() { _ = ts.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp, err := RoundTripTCP(conn, &v1.TCPRequest{Plan: &v1.PlanRequest{Cluster: "beluga", Src: 0, Dst: 1, Bytes: 1 << 26}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil || resp.Plan == nil || resp.Plan.PredictedSeconds <= 0 {
		t.Fatalf("plan frame = %+v err=%+v", resp.Plan, resp.Error)
	}
	resp, err = RoundTripTCP(conn, &v1.TCPRequest{Batch: &v1.BatchRequest{Cluster: "beluga", Items: []v1.BatchItem{
		{Src: 0, Dst: 1, Bytes: 1 << 26}, {Src: 1, Dst: 2, Bytes: 1 << 22},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil || resp.Batch == nil || len(resp.Batch.Results) != 2 || resp.Batch.Failed != 0 {
		t.Fatalf("batch frame = %+v err=%+v", resp.Batch, resp.Error)
	}
	// Version mismatch and malformed frames come back in-band; the
	// connection survives both.
	resp, err = RoundTripTCP(conn, &v1.TCPRequest{Version: "v9", Plan: &v1.PlanRequest{Cluster: "beluga", Src: 0, Dst: 1, Bytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != v1.ErrCodeVersionMismatch {
		t.Fatalf("version mismatch = %+v", resp.Error)
	}
	resp, err = RoundTripTCP(conn, &v1.TCPRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != v1.ErrCodeBadRequest {
		t.Fatalf("empty frame = %+v", resp.Error)
	}
	// A size that underflows the solver fails in-band too.
	resp, err = RoundTripTCP(conn, &v1.TCPRequest{Plan: &v1.PlanRequest{Cluster: "beluga", Src: 0, Dst: 1, Bytes: 5e-324}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != v1.ErrCodePlanFailed {
		t.Fatalf("underflowing plan frame = %+v err=%+v", resp.Plan, resp.Error)
	}
	// Frames decode leniently: an unknown item field, which HTTP refuses,
	// is answered.
	frame := []byte(`{"v":"v1","batch":{"cluster":"beluga","items":[{"src":0,"dst":1,"bytes":1048576,"sizzle":9}]}}`)
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, uint32(len(frame)))); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp = &v1.TCPResponse{}
	if err := json.Unmarshal(payload, resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil || resp.Batch == nil || len(resp.Batch.Results) != 1 || !(resp.Batch.Results[0].PredictedSeconds > 0) {
		t.Fatalf("frame with an unknown item field = %s", payload)
	}
}

// TestTCPOversizeAnswerRefusedInBand sends a detail batch of the default
// item limit, whose answer (about 49 MB) does not fit in one frame, then a
// small plan on the same connection: the first is answered
// batch_too_large and the second is planned.
func TestTCPOversizeAnswerRefusedInBand(t *testing.T) {
	srv, _ := newTestServer(t, "beluga")
	srv.maxBatch = DefaultMaxBatchItems
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTCPServer(srv)
	go func() { _ = ts.Serve(ln) }()
	t.Cleanup(func() { _ = ts.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	items := make([]v1.BatchItem, DefaultMaxBatchItems)
	for i := range items {
		items[i] = v1.BatchItem{Src: 0, Dst: 1, Bytes: 1 << 26}
	}
	resp, err := RoundTripTCP(conn, &v1.TCPRequest{Batch: &v1.BatchRequest{Cluster: "beluga", Items: items, Detail: true}})
	if err != nil {
		t.Fatalf("oversize answer: %v", err)
	}
	if resp.Error == nil || resp.Error.Code != v1.ErrCodeBatchTooLarge || resp.Batch != nil {
		t.Fatalf("oversize answer = %+v", resp.Error)
	}
	resp, err = RoundTripTCP(conn, &v1.TCPRequest{Plan: &v1.PlanRequest{Cluster: "beluga", Src: 0, Dst: 1, Bytes: 1 << 26}})
	if err != nil {
		t.Fatalf("plan after the oversize answer: %v", err)
	}
	if resp.Error != nil || resp.Plan == nil || resp.Plan.PredictedSeconds <= 0 {
		t.Fatalf("plan after the oversize answer = %+v err=%+v", resp.Plan, resp.Error)
	}
}

// TestHotReloadDuringBatchPlanning is the registry's concurrency contract
// under -race: batch planning goroutines hammer the server while another
// goroutine hot-reloads both clusters continuously. Every batch must
// succeed (on whichever tenant generation it resolved) and every reload
// must bump the generation monotonically.
func TestHotReloadDuringBatchPlanning(t *testing.T) {
	srv, hts := newTestServer(t, "beluga", "narval")
	var topo [2][]byte
	for i, name := range []string{"beluga", "narval"} {
		tn, ok := srv.Registry().Lookup(name)
		if !ok {
			t.Fatal(name)
		}
		topo[i] = tn.SpecJSON()
	}

	const (
		planners  = 4
		batches   = 40
		reloads   = 60
		batchSize = 32
	)
	items := make([]string, batchSize)
	for i := range items {
		cluster := "beluga"
		if i%2 == 1 {
			cluster = "narval"
		}
		items[i] = fmt.Sprintf(`{"cluster":%q,"src":%d,"dst":%d,"bytes":%d}`,
			cluster, i%4, (i+1)%4, 1<<(20+i%6))
	}
	batchBody := fmt.Sprintf(`{"items":[%s]}`, strings.Join(items, ","))

	var wg sync.WaitGroup
	errc := make(chan error, planners+1)
	for p := 0; p < planners; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				req, err := http.NewRequest("POST", hts.URL+"/v1/batch", strings.NewReader(batchBody))
				if err != nil {
					errc <- err
					return
				}
				resp, err := hts.Client().Do(req)
				if err != nil {
					errc <- err
					return
				}
				var br v1.BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK || br.Failed > 0 {
					errc <- fmt.Errorf("batch %d: status %d, failed %d", b, resp.StatusCode, br.Failed)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < reloads; r++ {
			name := "beluga"
			body := topo[0]
			if r%2 == 1 {
				name = "narval"
				body = topo[1]
			}
			req, err := http.NewRequest("PUT", hts.URL+"/v1/clusters/"+name, bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			resp, err := hts.Client().Do(req)
			if err != nil {
				errc <- err
				return
			}
			var info v1.ClusterInfo
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("reload %d: status %d", r, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i, name := range []string{"beluga", "narval"} {
		tn, ok := srv.Registry().Lookup(name)
		if !ok {
			t.Fatalf("%s lost", name)
		}
		// 1 initial registration + 30 reloads each.
		if tn.Generation() != 31 {
			t.Fatalf("%s generation = %d, want 31", name, tn.Generation())
		}
		if !bytes.Equal(tn.SpecJSON(), topo[i]) {
			t.Fatalf("%s topology drifted across reloads", name)
		}
	}
}
