package serve

import (
	"io"
	"math"
	"slices"
	"strconv"

	v1 "repro/internal/serve/v1"
)

// The batch codec is the reflection-free path for the one document shape
// that arrives at volume: a v1.BatchRequest (an HTTP body, or the batch of
// a TCP frame) and its non-detail v1.BatchResponse. It takes only the
// canonical shape, and declining is always safe: anything it declines goes,
// over the same bytes, to encoding/json, which stays the reference for the
// value, the error code, the message and the output bytes.
//
// The decoder takes exact keys, each at most once, in any order; strings
// of printable ASCII with no escapes; no nulls; src and dst as integer
// literals; and nothing but whitespace after the value. Every document it
// takes, encoding/json takes too, to a reflect.DeepEqual value — strict
// (json.Decoder with DisallowUnknownFields) for HTTP bodies and lenient
// (json.Unmarshal) for frames. Case-folded or duplicate keys, unknown
// fields and trailing data are declined, so each front keeps its own
// strictness through the fallback.
//
// The encoder writes a BatchResponse whose results carry only the two
// headline floats, byte for byte as encoding/json would. A document with
// a plan, an error, a string that needs escaping or a non-finite float is
// declined.

// codec holds the storage one batch request reuses: the body or frame, the
// decoded request, the answer and its encoding. One codec serves one
// request at a time (a TCP connection, or an HTTP request taken from
// codecs).
type codec struct {
	in    []byte
	out   []byte
	req   v1.BatchRequest
	frame v1.TCPRequest
	items []v1.BatchItem
	resp  v1.BatchResponse
	tcp   v1.TCPResponse
	// names interns cluster and path-set names, so decoded strings never
	// alias in, which the next request overwrites.
	names map[string]string
}

// Bounds on what a codec keeps between requests: one huge batch must not
// pin its buffers for the life of a connection or a pool entry.
const (
	retainBytes = 1 << 20
	retainItems = 4096
	maxNames    = 64
)

// release drops storage grown past the retention bounds.
func (c *codec) release() {
	if cap(c.in) > retainBytes {
		c.in = nil
	}
	if cap(c.out) > retainBytes {
		c.out = nil
	}
	if cap(c.items) > retainItems {
		c.items = nil
	}
	if cap(c.resp.Results) > retainItems {
		c.resp.Results = nil
	}
}

// intern returns b as a string that does not alias b.
func (c *codec) intern(b []byte) string {
	if s, ok := c.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if c.names == nil {
		c.names = make(map[string]string)
	}
	if len(c.names) < maxNames {
		c.names[s] = s
	}
	return s
}

// readBody reads r into c.in until EOF, a read error or limit bytes. It
// reports whether it saw EOF: a body it did not read whole goes to the
// fallback, which reads on from r where this left off.
func (c *codec) readBody(r io.Reader, limit int64) ([]byte, bool) {
	b, err := readUpTo(r, c.in[:0], int(limit))
	c.in = b
	return b, err == io.EOF
}

// readUpTo reads r into b until len(b) reaches n or a read fails, growing
// b only as bytes arrive: a length the peer announces costs nothing until
// its bytes come.
func readUpTo(r io.Reader, b []byte, n int) ([]byte, error) {
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), 4096)))
		}
		m, err := r.Read(b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// decodeBatch decodes a canonical BatchRequest document of at most
// maxItems items into c.req, or reports false.
func (c *codec) decodeBatch(doc []byte, maxItems int) bool {
	d := decoder{c: c, b: doc, maxItems: maxItems}
	c.req = v1.BatchRequest{}
	return d.batch(&c.req) && d.end()
}

// decodeFrame decodes a canonical TCPRequest document that carries a batch
// of at most maxItems items into c.frame, or reports false.
func (c *codec) decodeFrame(doc []byte, maxItems int) bool {
	d := decoder{c: c, b: doc, maxItems: maxItems}
	c.frame = v1.TCPRequest{}
	c.req = v1.BatchRequest{}
	return d.object(frameKeys[:], func(k int) bool {
		if k == 0 {
			return d.name(&c.frame.Version)
		}
		c.frame.Batch = &c.req
		return d.batch(&c.req)
	}) && c.frame.Batch != nil && d.end()
}

var (
	frameKeys = [...]string{"v", "batch"}
	batchKeys = [...]string{"cluster", "items", "detail"}
	itemKeys  = [...]string{"cluster", "src", "dst", "bytes", "pathset"}
)

// decoder scans one document. Every method returning false means
// "decline", not "invalid": the fallback decides what the bytes mean.
type decoder struct {
	c        *codec
	b        []byte
	i        int
	maxItems int
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// open consumes c after optional whitespace.
func (d *decoder) open(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// object decodes an object whose keys are all in keys, each at most
// once, calling field with a key's index to decode its value.
func (d *decoder) object(keys []string, field func(k int) bool) bool {
	if !d.open('{') {
		return false
	}
	var seen uint32
	for n := 0; ; n++ {
		if d.open('}') {
			return true
		}
		if n > 0 && !d.open(',') {
			return false
		}
		if k := d.key(keys, &seen); k < 0 || !field(k) {
			return false
		}
	}
}

// key reads `"name":` and returns the name's index in names, or -1 for a
// name not listed or already seen.
func (d *decoder) key(names []string, seen *uint32) int {
	k, ok := d.str()
	if !ok || !d.open(':') {
		return -1
	}
	for i, name := range names {
		if string(k) == name {
			if *seen&(1<<i) != 0 {
				return -1
			}
			*seen |= 1 << i
			return i
		}
	}
	return -1
}

// str returns the contents of a string of printable ASCII with no escapes.
func (d *decoder) str() ([]byte, bool) {
	if !d.open('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) name(dst *string) bool {
	s, ok := d.str()
	if ok {
		*dst = d.c.intern(s)
	}
	return ok
}

// number returns a JSON number literal and whether it has neither a
// fraction nor an exponent.
func (d *decoder) number() (lit []byte, integer, ok bool) {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !d.digits():
		return nil, false, false
	}
	integer = true
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		integer = false
		if !d.digits() {
			return nil, false, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		integer = false
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return nil, false, false
		}
	}
	return d.b[start:d.i], integer, true
}

// digits consumes one or more decimal digits.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *decoder) int(dst *int) bool {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

func (d *decoder) float(dst *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*dst = v
	return err == nil
}

func (d *decoder) bool(dst *bool) bool {
	d.ws()
	for _, lit := range [...]string{"false", "true"} {
		if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
			d.i += len(lit)
			*dst = lit == "true"
			return true
		}
	}
	return false
}

func (d *decoder) batch(req *v1.BatchRequest) bool {
	return d.object(batchKeys[:], func(k int) bool {
		switch k {
		case 0:
			return d.name(&req.Cluster)
		case 1:
			return d.items(req)
		default:
			return d.bool(&req.Detail)
		}
	})
}

// items decodes the items array into the codec's reused item storage.
// Past maxItems it declines, leaving the batch_too_large answer to the
// fallback.
func (d *decoder) items(req *v1.BatchRequest) bool {
	if !d.open('[') {
		return false
	}
	c := d.c
	c.items = c.items[:0]
	if c.items == nil {
		c.items = []v1.BatchItem{} // encoding/json decodes [] to a non-nil slice
	}
	if !d.open(']') {
		for {
			if len(c.items) == d.maxItems {
				return false
			}
			c.items = append(c.items, v1.BatchItem{})
			if !d.item(&c.items[len(c.items)-1]) {
				return false
			}
			if d.open(']') {
				break
			}
			if !d.open(',') {
				return false
			}
		}
	}
	req.Items = c.items
	return true
}

func (d *decoder) item(it *v1.BatchItem) bool {
	return d.object(itemKeys[:], func(k int) bool {
		switch k {
		case 0:
			return d.name(&it.Cluster)
		case 1:
			return d.int(&it.Src)
		case 2:
			return d.int(&it.Dst)
		case 3:
			return d.float(&it.Bytes)
		default:
			return d.name(&it.PathSet)
		}
	})
}

// appendBatch appends resp as json.Marshal would, or reports false for a
// document it leaves to encoding/json (the appended bytes are then
// garbage).
func appendBatch(b []byte, resp *v1.BatchResponse) ([]byte, bool) {
	b = append(b, '{')
	if resp.Cluster != "" {
		if !plain(resp.Cluster) {
			return b, false
		}
		b = append(b, `"cluster":"`...)
		b = append(b, resp.Cluster...)
		b = append(b, `",`...)
	}
	b = append(b, `"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			r := &resp.Results[i]
			if r.Plan != nil || r.Error != nil {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '{')
			ok := true
			if r.PredictedSeconds != 0 {
				b = append(b, `"predicted_s":`...)
				b, ok = appendFloat(b, r.PredictedSeconds)
			}
			if ok && r.PredictedGBps != 0 {
				if r.PredictedSeconds != 0 {
					b = append(b, ',')
				}
				b = append(b, `"predicted_gbps":`...)
				b, ok = appendFloat(b, r.PredictedGBps)
			}
			if !ok {
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if resp.Failed != 0 {
		b = append(b, `,"failed":`...)
		b = strconv.AppendInt(b, int64(resp.Failed), 10)
	}
	return append(b, '}'), true
}

// appendFrameBatch appends a TCPResponse that carries only a batch as
// json.Marshal would, or reports false.
func appendFrameBatch(b []byte, resp *v1.TCPResponse) ([]byte, bool) {
	if resp.Plan != nil || resp.Error != nil || resp.Batch == nil || !plain(resp.Version) {
		return b, false
	}
	b = append(b, `{"v":"`...)
	b = append(b, resp.Version...)
	b = append(b, `","batch":`...)
	b, ok := appendBatch(b, resp.Batch)
	return append(b, '}'), ok
}

// plain reports whether encoding/json writes s verbatim between quotes:
// printable ASCII other than '"', '\\' and the HTML-escaped '<', '>', '&'.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendFloat formats a finite float64 as encoding/json does: 'f' format
// for magnitudes in [1e-6, 1e21) and zero, otherwise 'e' with a leading
// zero of a negative exponent dropped.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
