package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hw"
	v1 "repro/internal/serve/v1"
)

// canonicalBatch is the document shape load generators send: 256 items
// over two clusters, every path set, sizes from 1 MiB to 1 GiB, no
// batch-level cluster.
func canonicalBatch() v1.BatchRequest {
	clusters := []string{"beluga", "narval"}
	pathSets := []string{"direct", "2gpus", "3gpus", "3gpus_host", "all"}
	req := v1.BatchRequest{Items: make([]v1.BatchItem, 256)}
	for i := range req.Items {
		src := i % 4
		req.Items[i] = v1.BatchItem{
			Cluster: clusters[i%2],
			Src:     src,
			Dst:     (src + 1 + i/4%3) % 4,
			Bytes:   math.Round(hw.MiB * math.Pow(1024, float64(i)/255)),
			PathSet: pathSets[i%5],
		}
	}
	return req
}

func frameDoc(t testing.TB, req *v1.BatchRequest) []byte {
	t.Helper()
	doc, err := json.Marshal(v1.TCPRequest{Version: v1.Version, Batch: req})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCanonicalBatchTakesFastPaths checks that the shape the load
// generator sends is decoded and answered by the batch codec on both
// fronts, to the values and bytes encoding/json gives. Both fuzz targets
// would pass a codec that declines everything; this test would not.
func TestCanonicalBatchTakesFastPaths(t *testing.T) {
	srv, _ := newTestServer(t, "beluga", "narval")
	srv.maxBatch = DefaultMaxBatchItems
	want := canonicalBatch()
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var c codec
	if !c.decodeBatch(body, srv.maxBatch) {
		t.Fatal("the batch codec declined a json.Marshal'd BatchRequest")
	}
	if !reflect.DeepEqual(c.req, want) {
		t.Fatalf("decoded %+v, want %+v", c.req, want)
	}
	if !c.decodeFrame(frameDoc(t, &want), srv.maxBatch) {
		t.Fatal("the batch codec declined a json.Marshal'd batch frame")
	}
	if !reflect.DeepEqual(c.frame, v1.TCPRequest{Version: v1.Version, Batch: &want}) {
		t.Fatalf("decoded frame %+v", c.frame)
	}

	if perr := srv.doBatch(&c.req, &c.resp); perr != nil {
		t.Fatal(perr)
	}
	if c.resp.Failed != 0 {
		t.Fatalf("%d items failed", c.resp.Failed)
	}
	got, ok := appendBatch(nil, &c.resp)
	if !ok {
		t.Fatal("the batch codec declined a non-detail answer")
	}
	wantOut, err := json.Marshal(&c.resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantOut) {
		t.Fatalf("answer bytes differ from json.Marshal:\n%s\n%s", got, wantOut)
	}
	tcp := v1.TCPResponse{Version: v1.Version, Batch: &c.resp}
	frame, ok := appendFrameBatch(nil, &tcp)
	if !ok {
		t.Fatal("the batch codec declined a batch frame answer")
	}
	if wantFrame, err := json.Marshal(&tcp); err != nil || !bytes.Equal(frame, wantFrame) {
		t.Fatalf("frame answer differs from json.Marshal (%v):\n%s\n%s", err, frame, wantFrame)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), append(wantOut, '\n')) {
		t.Fatalf("handler answered %d %s", rec.Code, rec.Body.Bytes())
	}
}

// FuzzDecodeBatch checks the decoder against encoding/json: whatever the
// codec takes, the strict HTTP decoder and the lenient frame decoder take
// too, to a reflect.DeepEqual value, and no decoded string aliases the
// input buffer.
func FuzzDecodeBatch(f *testing.F) {
	canon := canonicalBatch()
	canon.Items = canon.Items[:3]
	body, err := json.Marshal(canon)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add(frameDoc(f, &canon))
	for _, s := range []string{
		`{"cluster":"beluga","items":[{"src":0,"dst":1,"bytes":67108864}],"detail":true}`,
		` {"items" : [ {"cluster":"narval", "src":-0, "dst":3, "bytes":5e-324, "pathset":"all"} ] } ` + "\n",
		`{"items":[],"detail":false}`,
		`{"items":[{}],"cluster":""}`,
		`{"v":"v9","batch":{"items":[{"src":1,"dst":2,"bytes":1.5E+3}]}}`,
		`{"batch":{"items":[{"src":0,"dst":1,"bytes":1}]},"v":"v1"}`,
		`{"Items":[{"src":0,"dst":1,"bytes":1}]}`,
		`{"items":[{"src":0,"dst":1,"bytes":1}],"items":[]}`,
		`{"items":[{"src":0,"dst":1,"bytes":1,"sizzle":2}]}`,
		`{"items":[{"src":0,"dst":1,"bytes":1}]} {}`,
		`{"cluster":"beluga","items":[{"src":0,"dst":1,"bytes":1}]}`,
		`{"cluster":null,"items":[{"src":1.0,"dst":1e0,"bytes":1e400}]}`,
		`{"items":[{"src":99999999999999999999,"dst":01,"bytes":-1}]}`,
		`{"v":"v1","plan":{"cluster":"beluga","src":0,"dst":1,"bytes":1}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		var c codec
		if c.decodeBatch(buf, 64) {
			got := c.req
			clobber(buf)
			var strict v1.BatchRequest
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&strict); err != nil {
				t.Fatalf("codec took %q, json.Decoder refused it: %v", data, err)
			}
			if !reflect.DeepEqual(got, strict) {
				t.Fatalf("%q: codec %#v, json.Decoder %#v", data, got, strict)
			}
			var lenient v1.BatchRequest
			if err := json.Unmarshal(data, &lenient); err != nil || !reflect.DeepEqual(got, lenient) {
				t.Fatalf("%q: codec %#v, json.Unmarshal %#v (%v)", data, got, lenient, err)
			}
		}
		copy(buf, data)
		if c.decodeFrame(buf, 64) {
			got := c.frame
			clobber(buf)
			var lenient v1.TCPRequest
			if err := json.Unmarshal(data, &lenient); err != nil {
				t.Fatalf("codec took frame %q, json.Unmarshal refused it: %v", data, err)
			}
			if !reflect.DeepEqual(got, lenient) {
				t.Fatalf("%q: codec %#v, json.Unmarshal %#v", data, got, lenient)
			}
		}
	})
}

func clobber(b []byte) {
	for i := range b {
		b[i] = 'x'
	}
}

// FuzzEncodeBatch checks the encoder against encoding/json: whenever the
// codec takes a BatchResponse built from the fuzzed float bits, strings
// and counts, its bytes equal json.Marshal's and, with the trailing
// newline, json.Encoder's; the same for the frame answer.
func FuzzEncodeBatch(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), 1e-7, 5e-324, math.MaxFloat64, 0.0026843545600000003, 39.99, math.NaN(), math.Inf(-1)} {
		f.Add("", "v1", uint8(3), math.Float64bits(x), math.Float64bits(1/x), uint64(0), 0, uint8(0))
	}
	f.Add("beluga", "v1", uint8(2), math.Float64bits(1e-3), uint64(0), uint64(1)<<52, 2, uint8(1))
	f.Add("a<b>&\"\\\n é", "v\x00", uint8(1), uint64(1), uint64(2), uint64(3), -1, uint8(6))
	f.Fuzz(func(t *testing.T, cluster, version string, n uint8, secs, gbps, stride uint64, failed int, flags uint8) {
		resp := v1.BatchResponse{Cluster: cluster, Failed: failed}
		if flags&1 == 0 {
			resp.Results = make([]v1.BatchResult, n%8)
		}
		for i := range resp.Results {
			r := &resp.Results[i]
			r.PredictedSeconds = math.Float64frombits(secs + uint64(i)*stride)
			r.PredictedGBps = math.Float64frombits(gbps ^ uint64(i)*stride)
			switch {
			case flags&2 != 0 && i == int(n)%len(resp.Results):
				r.Error = &v1.ErrorBody{Code: v1.ErrCodePlanFailed, Message: cluster}
			case flags&4 != 0 && i == 0:
				r.Plan = &v1.PlanResponse{Cluster: cluster}
			}
		}
		if got, ok := appendBatch(nil, &resp); ok {
			want, err := json.Marshal(&resp)
			if err != nil {
				t.Fatalf("codec encoded %+v, json.Marshal refused it: %v", resp, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("codec %s\njson.Marshal %s", got, want)
			}
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(&resp); err != nil || !bytes.Equal(append(got, '\n'), enc.Bytes()) {
				t.Fatalf("codec %s\njson.Encoder %s (%v)", got, enc.Bytes(), err)
			}
		}
		tcp := v1.TCPResponse{Version: version, Batch: &resp}
		if got, ok := appendFrameBatch(nil, &tcp); ok {
			if want, err := json.Marshal(&tcp); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("codec %s\njson.Marshal %s (%v)", got, want, err)
			}
		}
	})
}

// TestReadFrameGrowsWithArrivingBytes checks that a header announcing the
// largest frame, followed by a close, costs a small buffer rather than the
// announced size, and that frames of mixed sizes read back through one
// reused buffer.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(append(hdr[:], "{\"v\":"...)), nil)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a header announcing %d bytes allocated %d bytes", maxFrameBytes, alloc)
	}

	var stream bytes.Buffer
	var payloads [][]byte
	for _, n := range []int{1, 100, 5000, 70000, 10, 4096} {
		p := bytes.Repeat([]byte{'a' + byte(n%26)}, n)
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(n)))
		stream.Write(p)
		payloads = append(payloads, p)
	}
	var buf []byte
	for i, want := range payloads {
		got, err := readFrame(&stream, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: read %d bytes, want %d", i, len(got), len(want))
		}
		buf = got
	}
	if _, err := readFrame(&stream, buf); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want EOF", err)
	}
}

// BenchmarkBatchHTTP answers a canonical 256-item, two-cluster batch
// through the HTTP handler.
func BenchmarkBatchHTTP(b *testing.B) {
	srv, _ := newTestServer(b, "beluga", "narval")
	srv.maxBatch = DefaultMaxBatchItems
	req := canonicalBatch()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkBatchFrame answers the same batch as one TCP frame: decode,
// plan, and the encoded answer frame.
func BenchmarkBatchFrame(b *testing.B) {
	srv, _ := newTestServer(b, "beluga", "narval")
	srv.maxBatch = DefaultMaxBatchItems
	req := canonicalBatch()
	payload := frameDoc(b, &req)
	ts := NewTCPServer(srv)
	var c codec
	out, err := appendFrame(nil, ts.handleFrame(&c, payload))
	if err != nil || bytes.Contains(out, []byte(`"error"`)) {
		b.Fatalf("%v: %s", err, out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = appendFrame(out[:0], ts.handleFrame(&c, payload))
	}
}
