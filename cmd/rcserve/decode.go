package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// readBody reads the whole request body, at most limit bytes, into one
// buffer sized from Content-Length. A body over limit is an
// *http.MaxBytesError even when the JSON value in it ends before the cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > limit {
		n = 0 // unknown, or a length the cap refuses: grow as bytes arrive
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead)) // room for the read that meets EOF
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeDesignRequest decodes a POST /design body. The shape clients send
// decodes in one pass (decodeDesignFast); every other body goes to
// encoding/json with DisallowUnknownFields, so each rejection, with its
// error text, and each unusual acceptance is encoding/json's own.
func decodeDesignRequest(body []byte) (designRequest, error) {
	if req, ok := decodeDesignFast(body); ok {
		return req, nil
	}
	var req designRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// designKeys are the request's JSON keys in designRequest's field order.
var designKeys = []string{"design", "threshold", "required", "k"}

// jsonNumber matches the JSON number grammar at the start of its input.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// decodeDesignFast decodes body when it is an object whose keys are exactly
// designKeys, each at most once, with a string design and number knobs, and
// reports false on anything else: null, other keys or spellings,
// duplicates, surrogate escapes, invalid UTF-8, control bytes or any syntax
// error. Numbers parse as encoding/json parses them. Bytes after the
// closing brace are ignored, as json.Decoder.Decode ignores them.
func decodeDesignFast(b []byte) (req designRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return req, true
	}
	var seen [4]bool
	for {
		key, n, ok := unquote(b[i:])
		f := slices.Index(designKeys, key)
		if !ok || f < 0 || seen[f] {
			return req, false
		}
		seen[f] = true
		if i = skipSpace(b, i+n); i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		num := string(jsonNumber.Find(b[i:]))
		n = len(num)
		var err error
		switch f {
		case 0:
			req.Design, n, ok = unquote(b[i:])
		case 1:
			req.Threshold, err = strconv.ParseFloat(num, 64)
		case 2:
			req.Required, err = strconv.ParseFloat(num, 64)
		case 3:
			var k int64
			k, err = strconv.ParseInt(num, 10, 64)
			req.K = int(k)
			ok = int64(req.K) == k
		}
		if i = skipSpace(b, i+n); !ok || err != nil || i == len(b) || b[i] != ',' && b[i] != '}' {
			return req, false
		}
		if b[i] == '}' {
			return req, true
		}
		i = skipSpace(b, i+1)
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// special flags the high bit of each byte of x that a JSON string does not
// carry as itself: one with its high bit set, below 0x20 or a backslash.
// The lowest flag marks the first such byte; a borrow may flag bytes above
// it too.
func special(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	bs := x ^ ones*'\\'
	return (x | (x-ones*0x20)&^x | (bs-ones)&^bs) & highs
}

// unquote decodes the JSON string b starts with into a builder grown to the
// raw string's length, eight bytes at a time between escapes. It returns
// the string and the raw length through the closing quote, or false where
// encoding/json would reject the string or replace a rune in it: a control
// byte, a bad escape, a surrogate \u escape or invalid UTF-8.
func unquote(b []byte) (string, int, bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", 0, false
	}
	end := 1
	for {
		j := bytes.IndexByte(b[end:], '"')
		if j < 0 {
			return "", 0, false
		}
		end += j
		k := end
		for b[k-1] == '\\' { // b[0] is the opening quote
			k--
		}
		if (end-k)%2 == 0 {
			break // an even run of backslashes escapes itself, not the quote
		}
		end++
	}
	raw := b[1:end]
	var sb strings.Builder
	sb.Grow(len(raw))
	ascii, start := true, 0
	for i := 0; i < len(raw); i++ {
		for ; i+8 <= len(raw); i += 8 {
			if m := special(binary.LittleEndian.Uint64(raw[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
		}
		for i < len(raw) && raw[i] >= 0x20 && raw[i] < 0x80 && raw[i] != '\\' {
			i++
		}
		if i == len(raw) {
			break
		}
		if raw[i] >= 0x80 {
			ascii = false
			continue
		}
		if raw[i] < 0x20 {
			return "", 0, false
		}
		sb.Write(raw[start:i])
		i++ // a backslash run before the closing quote is even, so raw[i] exists
		if e := strings.IndexByte(`"\/bfnrt`, raw[i]); e >= 0 {
			sb.WriteByte("\"\\/\b\f\n\r\t"[e])
		} else if raw[i] != 'u' || i+4 >= len(raw) {
			return "", 0, false
		} else if r, err := strconv.ParseUint(string(raw[i+1:i+5]), 16, 32); err != nil || utf16.IsSurrogate(rune(r)) {
			return "", 0, false
		} else {
			sb.WriteRune(rune(r))
			i += 4
		}
		start = i + 1
	}
	if !ascii && !utf8.Valid(raw) {
		return "", 0, false
	}
	sb.Write(raw[start:])
	return sb.String(), end + 1, true
}
