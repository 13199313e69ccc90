// Package httpmsg implements the HTTP/1.0 and HTTP/1.1 message layer used
// by the simulated client and servers: byte-exact serialization, incremental
// parsing of pipelined message streams, and the body-delimitation rules of
// RFC 1945 and RFC 2068 that the simulated servers use: Content-Length, or
// read until close. Nothing here sends chunked transfer coding, so a
// response that carries Transfer-Encoding is malformed.
//
// Serialization is byte-exact on purpose: the paper's Bytes column counts
// HTTP header bytes, and the comparison between the ~190-byte libwww robot
// requests and the ~300-byte product-browser requests is part of the
// results (Tables 10 and 11).
package httpmsg

import (
	"strconv"
	"strings"
)

// Field is a single header field. Name case is preserved for byte-exact
// output; lookups are case-insensitive.
type Field struct {
	Name, Value string
}

// Header is an ordered header field list.
type Header struct {
	fields []Field
}

// Add appends a field, preserving order and duplicates. The first Add
// reserves room for the eight fields a message here typically carries.
func (h *Header) Add(name, value string) {
	if h.fields == nil {
		h.fields = make([]Field, 0, 8)
	}
	h.fields = append(h.fields, Field{Name: name, Value: value})
}

// Set replaces the first field with the given name (or appends).
func (h *Header) Set(name, value string) {
	for i := range h.fields {
		if strings.EqualFold(h.fields[i].Name, name) {
			h.fields[i].Value = value
			return
		}
	}
	h.Add(name, value)
}

// Get returns the first value for name, or "".
func (h *Header) Get(name string) string {
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			return f.Value
		}
	}
	return ""
}

// Has reports whether the header contains name.
func (h *Header) Has(name string) bool {
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			return true
		}
	}
	return false
}

// Del removes all fields with the given name.
func (h *Header) Del(name string) {
	out := h.fields[:0]
	for _, f := range h.fields {
		if !strings.EqualFold(f.Name, name) {
			out = append(out, f)
		}
	}
	h.fields = out
}

// Reset removes every field but keeps the field array, so a message
// that is filled again for each use allocates its fields once.
func (h *Header) Reset() {
	clear(h.fields)
	h.fields = h.fields[:0]
}

// Fields returns the ordered field list.
func (h *Header) Fields() []Field { return h.fields }

// Len returns the number of fields.
func (h *Header) Len() int { return len(h.fields) }

// Clone returns a deep copy.
func (h *Header) Clone() Header {
	out := Header{fields: make([]Field, len(h.fields))}
	copy(out.fields, h.fields)
	return out
}

// appendTo serializes the fields onto b, without the blank line that
// ends a head.
func (h *Header) appendTo(b []byte) []byte {
	for _, f := range h.fields {
		b = appendField(b, f.Name, f.Value)
	}
	return b
}

func appendField(b []byte, name, value string) []byte {
	b = append(b, name...)
	b = append(b, ": "...)
	b = append(b, value...)
	return append(b, "\r\n"...)
}

// wireSize is the number of bytes appendTo emits.
func (h *Header) wireSize() int {
	n := 0
	for _, f := range h.fields {
		n += len(f.Name) + len(f.Value) + 4
	}
	return n
}

// appendLength appends a Content-Length field for n bytes, formatting n
// in place rather than through a string.
func appendLength(b []byte, n int) []byte {
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, "\r\n"...)
}

// lengthSize is the number of bytes appendLength emits for n, 0 for a
// negative n, which stands for no field.
func lengthSize(n int) int {
	if n < 0 {
		return 0
	}
	size := len("Content-Length: \r\n") + 1
	for ; n >= 10; n /= 10 {
		size++
	}
	return size
}

// TokenListContains reports whether a comma-separated header value (e.g.
// Connection or Accept-Encoding) contains token, case-insensitively.
func TokenListContains(value, token string) bool {
	for more := true; more; {
		var part string
		if part, value, more = strings.Cut(value, ","); strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// ETagMatch implements If-None-Match list matching against an entity tag:
// "*" matches any entity, otherwise the comma-separated list is compared
// entry by entry (strong comparison, as 1997 validators were opaque
// strings). Both origin servers and caches answering conditionals locally
// use this rule.
func ETagMatch(headerVal, etag string) bool {
	if strings.TrimSpace(headerVal) == "*" {
		return true
	}
	for more := true; more; {
		var part string
		if part, headerVal, more = strings.Cut(headerVal, ","); strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}
