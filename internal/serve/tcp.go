package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	v1 "repro/internal/serve/v1"
)

// The TCP fast path serves plan and batch queries over persistent
// connections with 4-byte big-endian length-prefixed JSON frames: no HTTP
// parsing, no per-request connection setup, one goroutine per connection.
// The framing is deliberately trivial so non-Go clients can speak it in a
// few lines. Requests on one connection are answered in order.

// maxFrameBytes bounds one TCP frame (same budget as the HTTP body limit's
// default — a frame is one request document).
const maxFrameBytes = 32 << 20

// errFrameTooLarge reports an answer that does not fit in one frame.
var errFrameTooLarge = errors.New("serve: answer exceeds the frame size limit")

// TCPServer serves the v1 fast path on a listener.
type TCPServer struct {
	srv *Server

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// NewTCPServer wraps a Server with the length-prefixed TCP front end.
func NewTCPServer(srv *Server) *TCPServer {
	return &TCPServer{srv: srv, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Serve accepts connections until the listener closes (via Close). Each
// connection gets its own goroutine; Serve itself blocks.
func (ts *TCPServer) Serve(ln net.Listener) error {
	ts.mu.Lock()
	ts.ln = ln
	ts.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-ts.done:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		ts.mu.Lock()
		ts.conns[conn] = struct{}{}
		ts.mu.Unlock()
		go ts.serveConn(conn)
	}
}

// Close stops accepting and closes every live connection.
func (ts *TCPServer) Close() error {
	close(ts.done)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var err error
	if ts.ln != nil {
		err = ts.ln.Close()
	}
	for conn := range ts.conns {
		_ = conn.Close()
	}
	ts.conns = make(map[net.Conn]struct{})
	return err
}

func (ts *TCPServer) serveConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		ts.mu.Lock()
		delete(ts.conns, conn)
		ts.mu.Unlock()
	}()
	var c codec
	for {
		payload, err := readFrame(conn, c.in)
		c.in = payload
		if err != nil {
			// EOF (client done) and teardown races end the loop quietly;
			// the framing protocol has no in-band way to report them.
			return
		}
		resp := ts.handleFrame(&c, payload)
		c.out, err = appendFrame(c.out[:0], resp)
		if errors.Is(err, errFrameTooLarge) {
			// An answer past the frame limit (a large detail batch) is
			// refused in-band like any other oversized batch.
			*resp = v1.TCPResponse{Version: v1.Version,
				Error: &v1.ErrorBody{Code: v1.ErrCodeBatchTooLarge, Message: err.Error()}}
			c.out, err = appendFrame(c.out[:0], resp)
		}
		if err != nil {
			return
		}
		if _, err := conn.Write(c.out); err != nil {
			return
		}
		c.release()
	}
}

// handleFrame answers one frame's payload, decoding and answering into the
// connection's codec. Errors travel inside TCPResponse — the connection
// survives bad requests.
func (ts *TCPServer) handleFrame(c *codec, payload []byte) *v1.TCPResponse {
	resp := &c.tcp
	*resp = v1.TCPResponse{Version: v1.Version}
	req := &c.frame
	if !c.decodeFrame(payload, ts.srv.maxBatch) {
		*req = v1.TCPRequest{}
		if err := json.Unmarshal(payload, req); err != nil {
			resp.Error = &v1.ErrorBody{Code: v1.ErrCodeBadRequest, Message: "decode frame: " + err.Error()}
			return resp
		}
	}
	if req.Version != "" && req.Version != v1.Version {
		resp.Error = &v1.ErrorBody{Code: v1.ErrCodeVersionMismatch,
			Message: fmt.Sprintf("frame speaks API %q, this daemon serves %q", req.Version, v1.Version)}
		return resp
	}
	switch {
	case req.Plan != nil && req.Batch == nil:
		resp.Plan, resp.Error = ts.srv.doPlan(req.Plan)
	case req.Batch != nil && req.Plan == nil:
		if resp.Error = ts.srv.doBatch(req.Batch, &c.resp); resp.Error == nil {
			resp.Batch = &c.resp
		}
	default:
		resp.Error = &v1.ErrorBody{Code: v1.ErrCodeBadRequest, Message: "frame must carry exactly one of plan or batch"}
	}
	return resp
}

// RoundTripTCP writes one request frame and reads its response — the
// minimal client side of the fast path. The conn must not be shared
// between concurrent round trips.
func RoundTripTCP(conn net.Conn, req *v1.TCPRequest) (*v1.TCPResponse, error) {
	frame, err := appendFrame(nil, req)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	payload, err := readFrame(conn, nil)
	if err != nil {
		return nil, err
	}
	var resp v1.TCPResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// readFrame reads one length-prefixed JSON payload into buf's storage. The
// header is untrusted: buf grows only as payload bytes arrive, so a header
// announcing a large frame costs nothing until its bytes come.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	hdr := slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return hdr[:0], err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 || n > maxFrameBytes {
		return hdr[:0], fmt.Errorf("serve: frame length %d out of range", n)
	}
	payload, err := readUpTo(r, hdr[:0], n)
	if len(payload) == n {
		return payload, nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return payload, err
}

// appendFrame appends doc to b as one length-prefixed frame: a batch answer
// through the batch codec when it takes it, anything else through
// json.Marshal.
func appendFrame(b []byte, doc any) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	ok := false
	if resp, isResp := doc.(*v1.TCPResponse); isResp {
		b, ok = appendFrameBatch(b, resp)
	}
	if !ok {
		payload, err := json.Marshal(doc)
		if err != nil {
			return b[:start], err
		}
		b = append(b[:start+4], payload...)
	}
	n := len(b) - start - 4
	if n > maxFrameBytes {
		return b[:start], fmt.Errorf("%w (%d bytes, limit %d)", errFrameTooLarge, n, maxFrameBytes)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}
