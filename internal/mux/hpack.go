package mux

import (
	"errors"
	"fmt"
	"strings"
)

// Field is one header field. Pseudo-header names (":method", ":path",
// ":authority", ":status") carry the request/response line, as in
// HTTP/2.
type Field struct {
	Name  string
	Value string
}

// LowerName returns an HTTP/1.x header name in the lower case a header
// block carries. The names the simulator's request styles and server
// profiles send come from a table built once, so lowering them
// allocates nothing; any other name goes through strings.ToLower.
func LowerName(name string) string {
	if l, ok := lowerNames[name]; ok {
		return l
	}
	return strings.ToLower(name)
}

var lowerNames = func() map[string]string {
	m := make(map[string]string)
	for _, n := range []string{
		// Requests: the client styles' fields, then validators, ranges
		// and the content codings a work item adds.
		"Host", "Accept", "User-Agent", "Accept-Language", "Accept-Charset",
		"From", "Connection", "UA-pixels", "UA-color", "UA-OS", "UA-CPU",
		"If-None-Match", "If-Modified-Since", "Range", "Accept-Encoding",
		BurstRequestHeader,
		// Responses: the server profiles' standing fields and the
		// entity's.
		"Date", "Server", "MIME-Version", "Cache-Control", "Accept-Ranges",
		"Content-Type", "Content-Encoding", "Content-Range", "ETag",
		"Last-Modified",
	} {
		m[n] = strings.ToLower(n)
	}
	return m
}()

// The header block encoding is a deliberately small HPACK: each field
// is either an index into the static+dynamic table (exact match), a
// name index plus a literal value (which is then inserted into the
// dynamic table), or a fully literal name+value pair (also inserted).
//
//	0x80 | index          indexed field (name and value)
//	0x40 | nameIndex      literal value, indexed name, with insertion
//	0x00                  literal name and value, with insertion
//
// Indexes and string lengths use HPACK's 7-bit-prefix varint. There
// is no Huffman coding: the simulator cares about byte counts and
// determinism, not bit-level compaction.

// staticTable holds the fields and field names the simulator's
// clients and servers emit most. Index 0 is reserved (an index of 0
// on the wire would be ambiguous with the literal opcode), so wire
// indexes are 1-based into this slice.
var staticTable = []Field{
	{":method", "GET"},
	{":method", "HEAD"},
	{":path", "/"},
	{":authority", ""},
	{":status", "200"},
	{":status", "304"},
	{":status", "206"},
	{":status", "404"},
	{"accept-encoding", "deflate"},
	{"cache-control", ""},
	{"content-encoding", "deflate"},
	{"content-length", ""},
	{"content-type", "text/html"},
	{"content-type", "image/png"},
	{"content-type", "image/gif"},
	{"content-type", "text/css"},
	{"date", ""},
	{"etag", ""},
	{"if-modified-since", ""},
	{"if-none-match", ""},
	{"last-modified", ""},
	{"range", ""},
	{"server", ""},
	{"user-agent", ""},
}

// dynTableCap bounds the dynamic table. Entries are evicted FIFO, as
// in HPACK; the cap is in entries rather than octets because the
// simulator's fields are uniformly small.
const dynTableCap = 128

// table is the shared static+dynamic index space. Encoder and
// decoder each own one and keep them synchronized by applying the
// same deterministic insertion rule to the same field stream. The
// dynamic entries live in a fixed ring read newest first, as HPACK
// numbers them, so an insertion moves nothing and allocates nothing.
type table struct {
	ring [dynTableCap]Field
	head int // ring index of the newest entry
	n    int // live entries
}

// dyn returns the dynamic entry at offset i, 0 being the newest.
func (t *table) dyn(i int) *Field { return &t.ring[(t.head+i)%dynTableCap] }

// lookup returns the 1-based wire index of an exact (name, value)
// match, or of a name-only match, or 0 if absent. Exact matches win
// over name matches; static wins over dynamic at equal match
// strength, keeping indexes stable across connections.
func (t *table) lookup(f Field) (exact int, name int) {
	for i, s := range staticTable {
		if s.Name == f.Name {
			if s.Value == f.Value {
				return i + 1, 0
			}
			if name == 0 {
				name = i + 1
			}
		}
	}
	for i := 0; i < t.n; i++ {
		if d := t.dyn(i); d.Name == f.Name {
			idx := len(staticTable) + i + 1
			if d.Value == f.Value {
				return idx, 0
			}
			if name == 0 {
				name = idx
			}
		}
	}
	return 0, name
}

// at returns the field at 1-based wire index i.
func (t *table) at(i int) (Field, error) {
	if i >= 1 && i <= len(staticTable) {
		return staticTable[i-1], nil
	}
	if d := i - len(staticTable) - 1; d >= 0 && d < t.n {
		return *t.dyn(d), nil
	}
	return Field{}, fmt.Errorf("mux: header index %d out of table range", i)
}

// insert adds f at dynamic index 1, evicting the oldest entry when
// full. Both sides call this for every literal-encoded field, which
// is what keeps their tables identical.
func (t *table) insert(f Field) {
	t.head = (t.head + dynTableCap - 1) % dynTableCap
	t.ring[t.head] = f
	t.n = min(t.n+1, dynTableCap)
}

// Encoder compresses header blocks. One encoder serves one direction
// of one connection.
type Encoder struct {
	t table
}

// Encode appends the header block for fields onto b.
func (e *Encoder) Encode(b []byte, fields []Field) []byte {
	for _, f := range fields {
		exact, name := e.t.lookup(f)
		switch {
		case exact != 0:
			b = appendVarint(b, 0x80, 7, uint64(exact))
		case name != 0:
			b = appendVarint(b, 0x40, 6, uint64(name))
			b = appendString(b, f.Value)
			e.t.insert(f)
		default:
			b = append(b, 0x00)
			b = appendString(b, f.Name)
			b = appendString(b, f.Value)
			e.t.insert(f)
		}
	}
	return b
}

// Decoder decompresses header blocks produced by the peer's Encoder.
type Decoder struct {
	t table
}

var errHeaderBlock = errors.New("mux: malformed header block")

// Decode parses a complete header block.
func (d *Decoder) Decode(block []byte) ([]Field, error) {
	var fields []Field
	for len(block) > 0 {
		b0 := block[0]
		switch {
		case b0&0x80 != 0:
			idx, rest, err := readVarint(block, 7)
			if err != nil {
				return nil, err
			}
			block = rest
			f, err := d.t.at(int(idx))
			if err != nil {
				return nil, err
			}
			fields = append(fields, f)
		case b0&0x40 != 0:
			idx, rest, err := readVarint(block, 6)
			if err != nil {
				return nil, err
			}
			nf, err := d.t.at(int(idx))
			if err != nil {
				return nil, err
			}
			val, rest, err := readString(rest)
			if err != nil {
				return nil, err
			}
			block = rest
			f := Field{Name: nf.Name, Value: val}
			d.t.insert(f)
			fields = append(fields, f)
		case b0 == 0x00:
			name, rest, err := readString(block[1:])
			if err != nil {
				return nil, err
			}
			val, rest, err := readString(rest)
			if err != nil {
				return nil, err
			}
			block = rest
			f := Field{Name: name, Value: val}
			d.t.insert(f)
			fields = append(fields, f)
		default:
			return nil, fmt.Errorf("%w: opcode byte 0x%02x", errHeaderBlock, b0)
		}
	}
	return fields, nil
}

// PlainSize is the size the fields would occupy uncompressed as
// HTTP/1.x header lines ("Name: value\r\n"); the difference against
// the encoded block is the header_bytes_saved metric.
func PlainSize(fields []Field) int {
	n := 0
	for _, f := range fields {
		n += len(f.Name) + len(f.Value) + 4
	}
	return n
}

// appendVarint writes HPACK's prefix varint: high bits `pattern`,
// then v in a prefix of `prefix` bits with 7-bit continuation bytes.
func appendVarint(b []byte, pattern byte, prefix uint, v uint64) []byte {
	max := uint64(1)<<prefix - 1
	if v < max {
		return append(b, pattern|byte(v))
	}
	b = append(b, pattern|byte(max))
	v -= max
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// readVarint reverses appendVarint, returning the value and the
// remaining bytes.
func readVarint(b []byte, prefix uint) (uint64, []byte, error) {
	if len(b) == 0 {
		return 0, nil, errHeaderBlock
	}
	max := uint64(1)<<prefix - 1
	v := uint64(b[0]) & max
	b = b[1:]
	if v < max {
		return v, b, nil
	}
	var shift uint
	for i, c := range b {
		v += uint64(c&0x7f) << shift
		shift += 7
		if c&0x80 == 0 {
			return v, b[i+1:], nil
		}
		if shift > 28 {
			return 0, nil, fmt.Errorf("%w: varint overflow", errHeaderBlock)
		}
	}
	return 0, nil, fmt.Errorf("%w: unterminated varint", errHeaderBlock)
}

func appendString(b []byte, s string) []byte {
	b = appendVarint(b, 0, 7, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readVarint(b, 7)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: string length %d exceeds block", errHeaderBlock, n)
	}
	return string(rest[:n]), rest[n:], nil
}
