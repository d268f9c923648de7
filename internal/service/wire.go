package service

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/plancache"
)

// The warm answer's wire path. A /v1/plan or /v1/batch body is appended
// into one pooled buffer and sent with its Content-Length in one Write,
// and the canonical /v1/batch body is read without reflection. The bytes
// are encoding/json's: PlanResponse, BatchItem and BatchResponse remain
// the declaration of the wire format, and TestPlanAndBatchBytesIdentical
// and FuzzPlanEncoding pin this file to json.Encoder's output of them.

// bufPool recycles response and request-body buffers. A buffer that grew
// past maxPooledBuf (a huge batch) is left to the collector.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// writeBody sends an encoded JSON body. A body that could not be encoded
// (ok false: a non-finite float) is sent empty with the status already
// chosen, which is what json.Encoder's error left on the wire.
func writeBody(w http.ResponseWriter, code int, body []byte, ok bool) int {
	if !ok {
		body = body[:0]
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
	return code
}

// appendPlan appends the PlanResponse of p with the given health digest
// and degraded flag; ok is false when a float is not finite, which
// json.Encoder refuses.
func appendPlan(b []byte, p *plancache.Plan, health string, degraded bool) (_ []byte, ok bool) {
	b = append(b, `{"machine":`...)
	b = appendString(b, p.Machine)
	b = append(b, `,"topology":`...)
	b = appendString(b, p.Topo)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, int64(p.D), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(p.Block), 10)
	b = append(b, `,"partition":`...)
	b = appendInts(b, p.Part)
	b = append(b, `,"predicted_us":`...)
	if b, ok = appendFloat(b, p.TimeMicro); !ok {
		return b, false
	}
	b = append(b, `,"phases":[`...)
	for i, ph := range p.Phases {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"subcube_dim":`...)
		b = strconv.AppendInt(b, int64(ph.SubcubeDim), 10)
		b = append(b, `,"eff_block":`...)
		b = strconv.AppendInt(b, int64(ph.EffBlock), 10)
		b = append(b, `,"alg":`...)
		b = appendString(b, ph.Alg.String())
		b = append(b, `,"time_us":`...)
		if b, ok = appendFloat(b, ph.Time); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	b = append(b, `],"segment":{"partition":`...)
	b = appendInts(b, p.Part)
	b = append(b, `,"min_block":`...)
	b = strconv.AppendInt(b, int64(p.SegMin), 10)
	b = append(b, `,"max_block":`...)
	b = strconv.AppendInt(b, int64(p.SegMax), 10)
	b = append(b, `},"in_range":`...)
	b = strconv.AppendBool(b, p.InRange)
	b = append(b, `,"health":`...)
	b = appendString(b, health)
	if degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, '}'), true
}

// batchResult is one /v1/batch answer as the workers leave it: a plan
// with its health, or the message of a BatchItem's error.
type batchResult struct {
	plan     plancache.Plan
	health   string
	degraded bool
	planned  bool
	err      string
}

// appendBatch appends the BatchResponse of the results.
func appendBatch(b []byte, results []batchResult) (_ []byte, ok bool) {
	b = append(b, `{"results":[`...)
	for i := range results {
		r := &results[i]
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case r.planned:
			b = append(b, `{"plan":`...)
			if b, ok = appendPlan(b, &r.plan, r.health, r.degraded); !ok {
				return b, false
			}
			b = append(b, '}')
		case r.err != "":
			b = append(b, `{"error":`...)
			b = appendString(b, r.err)
			b = append(b, '}')
		default:
			b = append(b, `{}`...)
		}
	}
	return append(b, `]}`...), true
}

func appendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloat formats f as encoding/json does a float64: ES6 number
// form, 'e' notation below 1e-6 and from 1e21 up with the exponent's
// leading zero trimmed (e-07 → e-7); ok is false for NaN and ±Inf.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
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

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Encoder does with
// HTML escaping on: ", \ and the control bytes escaped (\b \f \n \r \t by
// name), <, > and & as \u00XX, invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decodeBatch reads a /v1/batch body. The canonical form — one object
// holding only "queries", an array of objects with only the lowercase
// keys machine, topology, d and m, ASCII strings without escapes, and
// integers of at most 15 digits — is parsed directly. Every other body,
// and every body whose read failed (the size cap included), goes to
// decodeReader over the same bytes followed by the same read error, so
// its status and message are decodeBody's.
func decodeBatch(w http.ResponseWriter, r *http.Request, req *BatchRequest) int {
	buf := getBuf()
	defer putBuf(buf)
	var rerr error
	*buf, rerr = readAll(http.MaxBytesReader(w, r.Body, maxBodyBytes), *buf)
	if rerr == nil {
		if q, ok := parseBatch(string(*buf)); ok {
			req.Queries = q
			return 0
		}
	}
	var replay io.Reader = bytes.NewReader(*buf)
	if rerr != nil {
		replay = io.MultiReader(replay, errReader{rerr})
	}
	return decodeReader(w, replay, req)
}

// readAll is io.ReadAll appending to b.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader fails every read with err: the tail of a replayed body.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// maxBatchHint caps the query slice parseBatch sizes up front from the
// body's brace count, so braces inside strings cannot inflate it.
const maxBatchHint = 1024

// maxBatchDigits bounds a directly parsed integer, so it never overflows.
const maxBatchDigits = 15

// batchParser is a cursor over a /v1/batch body.
type batchParser struct {
	s string
	i int
}

// parseBatch parses the canonical /v1/batch body; ok is false for any
// other input, valid JSON or not. The strings it returns share body.
func parseBatch(body string) (queries []BatchQuery, ok bool) {
	p := batchParser{s: body}
	if !p.next('{') {
		return nil, false
	}
	if key, ok := p.str(); !ok || key != "queries" || !p.next(':') || !p.next('[') {
		return nil, false
	}
	queries = make([]BatchQuery, 0, min(strings.Count(body, "{")-1, maxBatchHint))
	if !p.next(']') {
		for {
			q, ok := p.query()
			if !ok {
				return nil, false
			}
			queries = append(queries, q)
			if p.next(',') {
				continue
			}
			if !p.next(']') {
				return nil, false
			}
			break
		}
	}
	if !p.next('}') {
		return nil, false
	}
	p.space()
	return queries, p.i == len(p.s)
}

// query parses one query object.
func (p *batchParser) query() (q BatchQuery, ok bool) {
	if !p.next('{') {
		return q, false
	}
	if p.next('}') {
		return q, true
	}
	for {
		key, ok := p.str()
		if !ok || !p.next(':') {
			return q, false
		}
		switch key {
		case "machine":
			q.Machine, ok = p.str()
		case "topology":
			q.Topology, ok = p.str()
		case "d":
			q.D, ok = p.int()
		case "m":
			q.M, ok = p.int()
		default:
			ok = false
		}
		if !ok {
			return q, false
		}
		if p.next(',') {
			continue
		}
		return q, p.next('}')
	}
}

// space skips JSON whitespace.
func (p *batchParser) space() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes c after any whitespace, reporting whether it was there.
func (p *batchParser) next(c byte) bool {
	p.space()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str parses a string of printable ASCII without escapes.
func (p *batchParser) str() (string, bool) {
	if !p.next('"') {
		return "", false
	}
	start := p.i
	for ; p.i < len(p.s); p.i++ {
		switch c := p.s[p.i]; {
		case c == '"':
			p.i++
			return p.s[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// int parses a JSON integer of at most maxBatchDigits digits; a
// fraction or an exponent is not one.
func (p *batchParser) int() (int, bool) {
	p.space()
	neg := p.i < len(p.s) && p.s[p.i] == '-'
	if neg {
		p.i++
	}
	start, v := p.i, 0
	for ; p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9'; p.i++ {
		v = v*10 + int(p.s[p.i]-'0')
	}
	n := p.i - start
	if n == 0 || n > maxBatchDigits || (n > 1 && p.s[start] == '0') {
		return 0, false
	}
	if p.i < len(p.s) {
		if c := p.s[p.i]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}
