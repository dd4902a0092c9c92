package estimate

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unsafe"

	"dasesim/internal/memreq"
	"dasesim/internal/sim"
)

// The wire codec is hand-rolled rather than encoding/json for one reason:
// the serve hot path must not allocate. encoding/json allocates per Decode
// (scanner state, field lookup, boxed values); this decoder parses the known
// flat request schema directly into caller-owned structs, and the encoder
// appends into a caller-owned buffer. It is also the largest cost of a
// batched request, so both halves look at each byte about once: a number's
// digits are read while its grammar is checked, and only spans outside the
// exact cases (float.go) go to strconv. Floats are emitted in shortest
// round-trip form and parsed correctly rounded, so a value survives
// encode→decode bit-exactly — the property the byte-identical cross-check
// test leans on. Unknown fields are skipped (forward compatibility); only
// object keys must be escape-free, skipped string values may contain any
// escapes.

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

// decoder is a single-pass cursor over one request body. Each scanner
// copies the cursor into locals and stores it back once, so its loop runs
// in registers instead of through d.
type decoder struct {
	data []byte
	pos  int
}

// isSpace tests c <= ' ' first: one compare rejects every byte of a
// compact body.
func isSpace(c byte) bool { return c <= ' ' && (c == ' ' || c == '\t' || c == '\r' || c == '\n') }

func (d *decoder) skipWS() {
	data, i := d.data, d.pos
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	d.pos = i
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
	data, start := d.data, d.pos
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], nil
		case c == '\\':
			return nil, decodeErrf("escaped object keys are not supported (offset %d)", i)
		case c < 0x20:
			return nil, decodeErrf("control character in object key at offset %d", i)
		}
	}
	return nil, decodeErrf("unterminated object key")
}

// number consumes one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so strconv never sees
// what it accepts beyond JSON (a leading '+', a bare '.'). A number
// character left after the span, as in 016, fails the caller's delimiter
// check. The span is d.data[start:d.pos]. The same pass reads the digits
// before any exponent, fraction digits included, as one integer mant with
// frac of them after the point; plain reports that the span has no
// exponent and mant holds every digit, so the common number is never
// scanned again.
func (d *decoder) number() (start int, mant uint64, frac int, plain bool, err *RequestError) {
	data, i := d.data, d.pos
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	start = i
	if i < len(data) && data[i] == '-' {
		i++
	}
	nd := 0 // digits in mant, a fraction's leading zeros included
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		j := i
		if i, mant = digits(data, i, 0); i == j {
			return start, 0, 0, false, decodeErrf("expected a number at offset %d", start)
		}
		nd = i - j
	}
	if i < len(data) && data[i] == '.' {
		i++
		j := i
		if i, mant = digits(data, i, mant); i == j {
			return start, 0, 0, false, decodeErrf("malformed number at offset %d", start)
		}
		frac = i - j
		nd += frac
	}
	plain = nd <= maxDigits
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := i
		for i < len(data) && data[i]-'0' <= 9 {
			i++
		}
		if i == j {
			return start, 0, 0, false, decodeErrf("malformed number at offset %d", start)
		}
		plain = false
	}
	d.pos = i
	return start, mant, frac, plain, nil
}

// digits consumes the run of decimal digits at data[i:] and appends them
// to mant, which holds them all while there are at most maxDigits.
func digits(data []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		mant = mant*10 + uint64(c)
	}
	return i, mant
}

// maxDigits is the longest digit string a uint64 always holds.
const maxDigits = 19

// exactUint and exactInt take mant when the span is digits only (as
// ParseUint and ParseInt require) and mant holds all of them.
func exactUint(mant uint64, frac int, plain, neg bool) (uint64, bool) {
	return mant, plain && frac == 0 && !neg
}

func exactInt(mant uint64, frac int, plain, neg bool) (int, bool) {
	if !plain || frac > 0 || mant > math.MaxInt64 {
		return 0, false
	}
	if neg {
		return -int(mant), true
	}
	return int(mant), true
}

// float, uint and int parse one number of their type: the exact case from
// the scan, every other span through strconv.
func (d *decoder) float(field string) (float64, *RequestError) {
	start, mant, frac, plain, err := d.number()
	if err != nil {
		return 0, err
	}
	if v, ok := exactFloat(mant, frac, plain, d.data[start] == '-'); ok {
		return v, nil
	}
	return d.parseFloat(field, start)
}

func (d *decoder) uint(field string) (uint64, *RequestError) {
	start, mant, frac, plain, err := d.number()
	if err != nil {
		return 0, err
	}
	if v, ok := exactUint(mant, frac, plain, d.data[start] == '-'); ok {
		return v, nil
	}
	return d.parseUint(field, start)
}

func (d *decoder) int(field string) (int, *RequestError) {
	start, mant, frac, plain, err := d.number()
	if err != nil {
		return 0, err
	}
	if v, ok := exactInt(mant, frac, plain, d.data[start] == '-'); ok {
		return v, nil
	}
	return d.parseInt(field, start)
}

// parseFloat, parseUint and parseInt are the strconv fallbacks for the
// number span d.data[start:d.pos].
func (d *decoder) parseFloat(field string, start int) (float64, *RequestError) {
	span := d.data[start:d.pos]
	v, perr := strconv.ParseFloat(bview(span), 64)
	if perr != nil {
		return 0, decodeErrf("field %q: bad number %q", field, span)
	}
	return v, nil
}

func (d *decoder) parseUint(field string, start int) (uint64, *RequestError) {
	span := d.data[start:d.pos]
	v, perr := strconv.ParseUint(bview(span), 10, 64)
	if perr != nil {
		return 0, decodeErrf("field %q: bad unsigned integer %q", field, span)
	}
	return v, nil
}

func (d *decoder) parseInt(field string, start int) (int, *RequestError) {
	span := d.data[start:d.pos]
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
		_, _, _, _, err := d.number()
		return err
	}
}

// appKey is one DASE row of sim.AppFields as the decoder reads it.
type appKey struct {
	name string
	// wire is the key as AppendRequest writes it, quoted and followed by
	// the colon: the bytes parseApp expects next. w holds it as two
	// little-endian words, zero-padded, and mask the bytes it covers.
	wire    string
	w, mask [2]uint64
	kind    reflect.Kind // reflect.Int, reflect.Uint64 or reflect.Float64
	off     uintptr      // the counter's offset in sim.AppInterval
}

// at reports whether data[i:] starts with k.wire, comparing two words where
// sixteen bytes remain.
func (k *appKey) at(data []byte, i int) bool {
	if len(data)-i < 16 {
		return len(data)-i >= len(k.wire) && bview(data[i:i+len(k.wire)]) == k.wire
	}
	return binary.LittleEndian.Uint64(data[i:])&k.mask[0] == k.w[0] &&
		binary.LittleEndian.Uint64(data[i+8:])&k.mask[1] == k.w[1]
}

// appKeys holds the DASE rows of sim.AppFields in table order, the order
// AppendRequest writes them in.
var appKeys = buildAppKeys()

// buildAppKeys reads each DASE row's counter off sim.AppInterval: row j is
// the struct's field j+1 (TestAppFieldsCoverAppInterval), so parseApp
// stores a value without naming the counter.
func buildAppKeys() []appKey {
	typ := reflect.TypeOf(sim.AppInterval{})
	var keys []appKey
	for j := range sim.AppFields {
		row := &sim.AppFields[j]
		if !row.DASE {
			continue
		}
		f := typ.Field(j + 1)
		k := appKey{name: row.Name, wire: `"` + row.Name + `":`, kind: f.Type.Kind(), off: f.Offset}
		if len(k.wire) > 16 || k.kind != rowKind(row) {
			panic("estimate: cannot decode sim.AppFields row " + row.Name + " into sim.AppInterval." + f.Name)
		}
		var w [16]byte
		copy(w[:], k.wire)
		k.w = [2]uint64{binary.LittleEndian.Uint64(w[:]), binary.LittleEndian.Uint64(w[8:])}
		for b := range len(k.wire) {
			k.mask[b/8] |= 0xFF << (8 * (b % 8))
		}
		keys = append(keys, k)
	}
	return keys
}

// rowKind is the kind of counter a row's getter reads.
func rowKind(row *sim.AppField) reflect.Kind {
	switch {
	case row.Int != nil:
		return reflect.Int
	case row.Uint != nil:
		return reflect.Uint64
	}
	return reflect.Float64
}

// lookupAppKey returns the index in appKeys of name, or -1.
func lookupAppKey(name []byte) int {
	for i := range appKeys {
		if appKeys[i].name == bview(name) {
			return i
		}
	}
	return -1
}

// appValue parses the value of key k into its counter in a.
func (d *decoder) appValue(a *sim.AppInterval, k *appKey) *RequestError {
	start, mant, frac, plain, err := d.number()
	if err != nil {
		return err
	}
	neg := d.data[start] == '-'
	p := unsafe.Add(unsafe.Pointer(a), k.off)
	var ok bool
	switch k.kind {
	case reflect.Int:
		if *(*int)(p), ok = exactInt(mant, frac, plain, neg); !ok {
			*(*int)(p), err = d.parseInt(k.name, start)
		}
	case reflect.Uint64:
		if *(*uint64)(p), ok = exactUint(mant, frac, plain, neg); !ok {
			*(*uint64)(p), err = d.parseUint(k.name, start)
		}
	default:
		if *(*float64)(p), ok = exactFloat(mant, frac, plain, neg); !ok {
			*(*float64)(p), err = d.parseFloat(k.name, start)
		}
	}
	return err
}

// parseApp fills the DASE counters of one AppInterval from the current
// object. It first compares the next bytes with the key AppendRequest
// writes next; only on a mismatch (keys out of order, unknown, repeated or
// spaced from their colon) does it scan the key and look it up. A
// repeated key overwrites, so the last one wins.
func (d *decoder) parseApp(a *sim.AppInterval) *RequestError {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	next := 0 // index in appKeys of the key expected next
	for {
		d.skipWS()
		var err *RequestError
		if next < len(appKeys) && appKeys[next].at(d.data, d.pos) {
			d.pos += len(appKeys[next].wire)
			err = d.appValue(a, &appKeys[next])
			next++
		} else {
			k, kerr := d.key()
			if kerr != nil {
				return kerr
			}
			if err := d.expect(':'); err != nil {
				return err
			}
			if i := lookupAppKey(k); i >= 0 {
				err = d.appValue(a, &appKeys[i])
				next = i + 1
			} else {
				err = d.skipValue(0)
			}
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
		req.Apps = append(req.Apps, sim.AppInterval{App: memreq.AppID(len(req.Apps))})
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
	return appendFloat(buf, v)
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
		buf = appendFloat(append(buf, `{"slowdown":`...), a.Slowdown)
		buf = appendFloat(append(buf, `,"slowdown_assigned":`...), a.SlowdownAssigned)
		buf = strconv.AppendBool(append(buf, `,"mbb":`...), a.MBB)
		buf = appendFloat(append(buf, `,"alpha":`...), a.Alpha)
		buf = appendFloat(append(buf, `,"time_bank":`...), a.TimeBank)
		buf = appendFloat(append(buf, `,"time_row":`...), a.TimeRow)
		buf = appendFloat(append(buf, `,"time_llc":`...), a.TimeLLC)
		buf = append(buf, '}')
	}
	buf = append(buf, `],"partition":[`...)
	for i, n := range resp.Partition {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	buf = appendFloat(append(buf, `],"unfairness":`...), resp.Unfairness)
	buf = appendFloat(append(buf, `,"partition_unfairness":`...), resp.PartitionUnfairness)
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
// and the cross-check tests. Optional header fields at their zero value are
// omitted; each app carries the DASE rows of sim.AppFields, in table order.
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
		sep := byte('{')
		for j := range sim.AppFields {
			f := &sim.AppFields[j]
			if !f.DASE {
				continue
			}
			buf = append(buf, sep, '"')
			buf = append(buf, f.Name...)
			buf = append(buf, '"', ':')
			buf = f.Append(buf, &req.Apps[i], -1)
			sep = ','
		}
		buf = append(buf, '}')
	}
	return append(buf, `]}`...)
}
