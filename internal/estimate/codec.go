package estimate

import (
	"fmt"
	"strconv"
	"unsafe"
)

// The wire codec is hand-rolled rather than encoding/json for one reason:
// the serve hot path must not allocate. encoding/json allocates per Decode
// (scanner state, field lookup, boxed values); this decoder parses the known
// flat request schema directly into caller-owned structs, and the encoder
// appends into a caller-owned buffer with strconv. Floats are emitted in
// shortest round-trip form and parsed with strconv.ParseFloat, so a value
// survives encode→decode bit-exactly — the property the byte-identical
// cross-check test leans on. Unknown fields are skipped (forward
// compatibility); only object keys must be escape-free, skipped string
// values may contain any escapes.

// RequestError describes a request the estimation service refused: JSON the
// decoder could not parse (KindDecode), or well-formed JSON carrying values
// the validator rejected (KindInvalid). Handlers map both to HTTP 400; the
// kind records which stage refused the input.
type RequestError struct {
	Kind string // KindDecode | KindInvalid
	Msg  string
}

// RequestError kinds.
const (
	KindDecode  = "decode"
	KindInvalid = "invalid"
)

// Error implements error.
func (e *RequestError) Error() string { return e.Msg }

// decodeErrf and invalidErrf build RequestErrors; they run only on rejected
// requests, so their allocations never touch the steady-state path.
func decodeErrf(format string, args ...any) *RequestError {
	return &RequestError{Kind: KindDecode, Msg: fmt.Sprintf(format, args...)}
}

func invalidErrf(format string, args ...any) *RequestError {
	return &RequestError{Kind: KindInvalid, Msg: fmt.Sprintf(format, args...)}
}

// bview returns a string view of b without copying. The view is passed only
// to strconv parsers, which do not retain their argument.
func bview(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// decoder is a single-pass cursor over one request body.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next non-whitespace byte without consuming it, or 0 at
// end of input.
func (d *decoder) peek() byte {
	d.skipWS()
	if d.pos >= len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// atEnd reports whether only whitespace remains. peek cannot tell: it
// returns 0 for a NUL byte too.
func (d *decoder) atEnd() bool {
	d.skipWS()
	return d.pos == len(d.data)
}

func (d *decoder) expect(c byte) *RequestError {
	d.skipWS()
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return decodeErrf("expected %q at offset %d", c, d.pos)
	}
	d.pos++
	return nil
}

// key parses an object key. Keys must be escape-free — every key in the
// schema is plain ASCII, and unknown keys are only compared, never unquoted.
func (d *decoder) key() ([]byte, *RequestError) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			k := d.data[start:d.pos]
			d.pos++
			return k, nil
		case c == '\\':
			return nil, decodeErrf("escaped object keys are not supported (offset %d)", d.pos)
		case c < 0x20:
			return nil, decodeErrf("control character in object key at offset %d", d.pos)
		default:
			d.pos++
		}
	}
	return nil, decodeErrf("unterminated object key")
}

// numberSpan consumes one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so strconv never sees
// what it accepts beyond JSON (a leading '+', a bare '.'). A number
// character left after the span, as in 016, fails the caller's delimiter
// check.
func (d *decoder) numberSpan() ([]byte, *RequestError) {
	d.skipWS()
	start := d.pos
	if d.at('-') {
		d.pos++
	}
	switch {
	case d.at('0'):
		d.pos++
	case d.digits() == 0:
		return nil, decodeErrf("expected a number at offset %d", start)
	}
	if d.at('.') {
		d.pos++
		if d.digits() == 0 {
			return nil, decodeErrf("malformed number at offset %d", start)
		}
	}
	if d.at('e') || d.at('E') {
		d.pos++
		if d.at('+') || d.at('-') {
			d.pos++
		}
		if d.digits() == 0 {
			return nil, decodeErrf("malformed number at offset %d", start)
		}
	}
	return d.data[start:d.pos], nil
}

// at reports whether the next byte is c.
func (d *decoder) at(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

func (d *decoder) float(field string) (float64, *RequestError) {
	span, err := d.numberSpan()
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseFloat(bview(span), 64)
	if perr != nil {
		return 0, decodeErrf("field %q: bad number %q", field, span)
	}
	return v, nil
}

func (d *decoder) uint(field string) (uint64, *RequestError) {
	span, err := d.numberSpan()
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseUint(bview(span), 10, 64)
	if perr != nil {
		return 0, decodeErrf("field %q: bad unsigned integer %q", field, span)
	}
	return v, nil
}

func (d *decoder) int(field string) (int, *RequestError) {
	span, err := d.numberSpan()
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseInt(bview(span), 10, 64)
	if perr != nil {
		return 0, decodeErrf("field %q: bad integer %q", field, span)
	}
	return int(v), nil
}

// skipString consumes a string value, escapes included, holding it to
// JSON's grammar: no raw control characters, only the escapes JSON defines.
func (d *decoder) skipString() *RequestError {
	if err := d.expect('"'); err != nil {
		return err
	}
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return nil
		case c == '\\':
			if err := d.skipEscape(); err != nil {
				return err
			}
		case c < 0x20:
			return decodeErrf("control character in string at offset %d", d.pos)
		default:
			d.pos++
		}
	}
	return decodeErrf("unterminated string")
}

// skipEscape consumes one escape sequence: \" \\ \/ \b \f \n \r \t or
// \u and four hex digits.
func (d *decoder) skipEscape() *RequestError {
	start := d.pos
	d.pos++
	if d.pos >= len(d.data) {
		return decodeErrf("unterminated string")
	}
	switch d.data[d.pos] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		d.pos++
		return nil
	case 'u':
		d.pos++
		for i := 0; i < 4; i++ {
			if d.pos >= len(d.data) || !isHex(d.data[d.pos]) {
				return decodeErrf("bad escape at offset %d", start)
			}
			d.pos++
		}
		return nil
	}
	return decodeErrf("bad escape at offset %d", start)
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// skipLiteral consumes true/false/null.
func (d *decoder) skipLiteral(lit string) *RequestError {
	if d.pos+len(lit) > len(d.data) || bview(d.data[d.pos:d.pos+len(lit)]) != lit {
		return decodeErrf("bad literal at offset %d", d.pos)
	}
	d.pos += len(lit)
	return nil
}

const maxSkipDepth = 16

// skipValue consumes any JSON value — the escape hatch for unknown fields.
func (d *decoder) skipValue(depth int) *RequestError {
	if depth > maxSkipDepth {
		return decodeErrf("value nested deeper than %d levels", maxSkipDepth)
	}
	switch d.peek() {
	case '"':
		return d.skipString()
	case 't':
		return d.skipLiteral("true")
	case 'f':
		return d.skipLiteral("false")
	case 'n':
		return d.skipLiteral("null")
	case '{':
		d.pos++
		if d.peek() == '}' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipString(); err != nil { // key, escapes allowed here
				return err
			}
			if err := d.expect(':'); err != nil {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			switch d.peek() {
			case ',':
				d.pos++
				d.skipWS()
			case '}':
				d.pos++
				return nil
			default:
				return decodeErrf("expected ',' or '}' at offset %d", d.pos)
			}
		}
	case '[':
		d.pos++
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			switch d.peek() {
			case ',':
				d.pos++
			case ']':
				d.pos++
				return nil
			default:
				return decodeErrf("expected ',' or ']' at offset %d", d.pos)
			}
		}
	case 0:
		return decodeErrf("unexpected end of input")
	default:
		_, err := d.numberSpan()
		return err
	}
}

// parseApp fills one AppCounters from the current object.
func (d *decoder) parseApp(a *AppCounters) *RequestError {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		k, err := d.key()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		switch bview(k) {
		case "sms":
			a.SMs, err = d.int("sms")
		case "alpha":
			a.Alpha, err = d.float("alpha")
		case "served":
			a.Served, err = d.uint("served")
		case "time_in_banks":
			a.TimeInBanks, err = d.uint("time_in_banks")
		case "erb_miss":
			a.ERBMiss, err = d.uint("erb_miss")
		case "ellc_miss":
			a.ELLCMiss, err = d.float("ellc_miss")
		case "row_hits":
			a.RowHits, err = d.uint("row_hits")
		case "row_misses":
			a.RowMisses, err = d.uint("row_misses")
		case "blp":
			a.BLP, err = d.float("blp")
		case "blp_access":
			a.BLPAccess, err = d.float("blp_access")
		case "blp_blocked":
			a.BLPBlocked, err = d.float("blp_blocked")
		case "tb_sum":
			a.TBSum, err = d.int("tb_sum")
		case "tb_shared":
			a.TBShared, err = d.int("tb_shared")
		default:
			err = d.skipValue(0)
		}
		if err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return decodeErrf("expected ',' or '}' at offset %d", d.pos)
		}
	}
}

// parseRequest fills one Request from the current object, reusing the
// capacity of req.Apps.
func (d *decoder) parseRequest(req *Request, maxApps int) *RequestError {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		k, err := d.key()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		switch bview(k) {
		case "id":
			req.ID, err = d.uint("id")
		case "interval_cycles":
			req.IntervalCycles, err = d.uint("interval_cycles")
		case "num_sms":
			req.NumSMs, err = d.int("num_sms")
		case "peak_req_per_cyc":
			req.PeakReqPerCyc, err = d.float("peak_req_per_cyc")
		case "peak_act_per_cyc":
			req.PeakActPerCyc, err = d.float("peak_act_per_cyc")
		case "req_max_factor":
			req.ReqMaxFactor, err = d.float("req_max_factor")
		case "min_sms":
			req.MinSMs, err = d.int("min_sms")
		case "apps":
			err = d.parseApps(req, maxApps)
		default:
			err = d.skipValue(0)
		}
		if err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return decodeErrf("expected ',' or '}' at offset %d", d.pos)
		}
	}
}

// parseApps fills req.Apps from the current array. A repeated "apps" key
// replaces the earlier list, as it does for every other key.
func (d *decoder) parseApps(req *Request, maxApps int) *RequestError {
	if err := d.expect('['); err != nil {
		return err
	}
	req.Apps = req.Apps[:0]
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if len(req.Apps) >= maxApps {
			return invalidErrf("more than %d apps in one snapshot", maxApps)
		}
		req.Apps = append(req.Apps, AppCounters{})
		if err := d.parseApp(&req.Apps[len(req.Apps)-1]); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return decodeErrf("expected ',' or ']' at offset %d", d.pos)
		}
	}
}

// growRequest extends reqs by one zeroed entry, preserving the Apps capacity
// of recycled entries so steady-state decoding allocates nothing.
func growRequest(reqs []Request) []Request {
	if len(reqs) < cap(reqs) {
		reqs = reqs[:len(reqs)+1]
		r := &reqs[len(reqs)-1]
		apps := r.Apps[:0]
		*r = Request{}
		r.Apps = apps
		return reqs
	}
	return append(reqs, Request{})
}

// decodeRequests parses a body holding either one request object or a JSON
// array batch. It appends into reqs (pass a recycled slice truncated to
// zero) and reports whether the body was a single object, so the encoder
// can mirror the framing.
func decodeRequests(data []byte, reqs []Request, maxBatch, maxApps int) ([]Request, bool, *RequestError) {
	d := decoder{data: data}
	switch d.peek() {
	case '{':
		reqs = growRequest(reqs)
		if err := d.parseRequest(&reqs[len(reqs)-1], maxApps); err != nil {
			return reqs, true, err
		}
		if !d.atEnd() {
			return reqs, true, decodeErrf("trailing data at offset %d", d.pos)
		}
		return reqs, true, nil
	case '[':
		d.pos++
		if d.peek() == ']' {
			return reqs, false, invalidErrf("empty batch")
		}
		for {
			if len(reqs) >= maxBatch {
				return reqs, false, invalidErrf("batch larger than %d snapshots", maxBatch)
			}
			reqs = growRequest(reqs)
			if err := d.parseRequest(&reqs[len(reqs)-1], maxApps); err != nil {
				return reqs, false, err
			}
			switch d.peek() {
			case ',':
				d.pos++
			case ']':
				d.pos++
				if !d.atEnd() {
					return reqs, false, decodeErrf("trailing data at offset %d", d.pos)
				}
				return reqs, false, nil
			default:
				return reqs, false, decodeErrf("expected ',' or ']' at offset %d", d.pos)
			}
		}
	case 0:
		return reqs, true, decodeErrf("empty request body")
	default:
		return reqs, true, decodeErrf("expected '{' or '[' at offset %d", d.pos)
	}
}

// --- Encoding. All appenders write into the caller's buffer and return it;
// with adequate capacity they allocate nothing.

func appendFloatField(buf []byte, key string, v float64) []byte {
	buf = append(buf, '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

func appendResponse(buf []byte, resp *Response) []byte {
	buf = append(buf, '{')
	if resp.ID != 0 {
		buf = append(buf, `"id":`...)
		buf = strconv.AppendUint(buf, resp.ID, 10)
		buf = append(buf, ',')
	}
	buf = append(buf, `"apps":[`...)
	for i := range resp.Apps {
		if i > 0 {
			buf = append(buf, ',')
		}
		a := &resp.Apps[i]
		buf = append(buf, '{')
		buf = appendFloatField(buf, "slowdown", a.Slowdown)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "slowdown_assigned", a.SlowdownAssigned)
		buf = append(buf, `,"mbb":`...)
		buf = strconv.AppendBool(buf, a.MBB)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "alpha", a.Alpha)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "time_bank", a.TimeBank)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "time_row", a.TimeRow)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "time_llc", a.TimeLLC)
		buf = append(buf, '}')
	}
	buf = append(buf, `],"partition":[`...)
	for i, n := range resp.Partition {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	buf = append(buf, `],`...)
	buf = appendFloatField(buf, "unfairness", resp.Unfairness)
	buf = append(buf, ',')
	buf = appendFloatField(buf, "partition_unfairness", resp.PartitionUnfairness)
	return append(buf, '}')
}

// appendResponses encodes a batch, mirroring the request framing: a single
// request gets a bare object, a batch gets an array.
func appendResponses(buf []byte, resps []Response, single bool) []byte {
	if single && len(resps) == 1 {
		return appendResponse(buf, &resps[0])
	}
	buf = append(buf, '[')
	for i := range resps {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendResponse(buf, &resps[i])
	}
	return append(buf, ']')
}

// AppendRequest encodes req as the wire JSON the service decodes — the
// client-side half of the codec, used by the load generator, the examples
// and the cross-check tests. Optional fields at their zero value are
// omitted.
func AppendRequest(buf []byte, req *Request) []byte {
	buf = append(buf, '{')
	if req.ID != 0 {
		buf = append(buf, `"id":`...)
		buf = strconv.AppendUint(buf, req.ID, 10)
		buf = append(buf, ',')
	}
	buf = append(buf, `"interval_cycles":`...)
	buf = strconv.AppendUint(buf, req.IntervalCycles, 10)
	if req.NumSMs != 0 {
		buf = append(buf, `,"num_sms":`...)
		buf = strconv.AppendInt(buf, int64(req.NumSMs), 10)
	}
	if req.PeakReqPerCyc != 0 {
		buf = append(buf, ',')
		buf = appendFloatField(buf, "peak_req_per_cyc", req.PeakReqPerCyc)
	}
	if req.PeakActPerCyc != 0 {
		buf = append(buf, ',')
		buf = appendFloatField(buf, "peak_act_per_cyc", req.PeakActPerCyc)
	}
	if req.ReqMaxFactor != 0 {
		buf = append(buf, ',')
		buf = appendFloatField(buf, "req_max_factor", req.ReqMaxFactor)
	}
	if req.MinSMs != 0 {
		buf = append(buf, `,"min_sms":`...)
		buf = strconv.AppendInt(buf, int64(req.MinSMs), 10)
	}
	buf = append(buf, `,"apps":[`...)
	for i := range req.Apps {
		if i > 0 {
			buf = append(buf, ',')
		}
		a := &req.Apps[i]
		buf = append(buf, `{"sms":`...)
		buf = strconv.AppendInt(buf, int64(a.SMs), 10)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "alpha", a.Alpha)
		buf = append(buf, `,"served":`...)
		buf = strconv.AppendUint(buf, a.Served, 10)
		buf = append(buf, `,"time_in_banks":`...)
		buf = strconv.AppendUint(buf, a.TimeInBanks, 10)
		buf = append(buf, `,"erb_miss":`...)
		buf = strconv.AppendUint(buf, a.ERBMiss, 10)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "ellc_miss", a.ELLCMiss)
		buf = append(buf, `,"row_hits":`...)
		buf = strconv.AppendUint(buf, a.RowHits, 10)
		buf = append(buf, `,"row_misses":`...)
		buf = strconv.AppendUint(buf, a.RowMisses, 10)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "blp", a.BLP)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "blp_access", a.BLPAccess)
		buf = append(buf, ',')
		buf = appendFloatField(buf, "blp_blocked", a.BLPBlocked)
		buf = append(buf, `,"tb_sum":`...)
		buf = strconv.AppendInt(buf, int64(a.TBSum), 10)
		buf = append(buf, `,"tb_shared":`...)
		buf = strconv.AppendInt(buf, int64(a.TBShared), 10)
		buf = append(buf, '}')
	}
	return append(buf, `]}`...)
}
