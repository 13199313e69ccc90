package mux

import (
	"bytes"
	"testing"
)

// FuzzFrameParser throws arbitrary byte streams at the frame reader
// and header decoder: the first byte picks a chunking pattern so the
// fuzzer explores truncated frames and header blocks split across
// Feed calls, and every HEADERS/PUSH_PROMISE payload is fed to the
// HPACK decoder. Nothing here may panic or over-read; a parse error
// is a valid outcome.
func FuzzFrameParser(f *testing.F) {
	// Seed corpus: a well-formed dialogue, truncations of it, an
	// oversized length field, a reserved-bit frame, and header
	// blocks of each opcode.
	var dialogue []byte
	dialogue = append(dialogue, Preface...)
	dialogue = AppendFrame(dialogue, FrameSettings, 0, 0,
		appendSetting(appendSetting(nil, SettingEnablePush, 1), SettingMaxFrameSize, 1024))
	var enc Encoder
	block := enc.Encode(nil, []Field{{":method", "GET"}, {":path", "/x"}, {"user-agent", "robot"}})
	dialogue = AppendFrame(dialogue, FrameHeaders, FlagEndHeaders|FlagEndStream, 1, block)
	dialogue = AppendFrame(dialogue, FrameData, FlagEndStream, 1, bytes.Repeat([]byte{0xaa}, 100))
	dialogue = AppendFrame(dialogue, FrameWindowUpdate, 0, 0, []byte{0, 0, 0, 100})
	dialogue = AppendFrame(dialogue, FramePushPromise, FlagEndHeaders, 1,
		append([]byte{0, 0, 0, 2}, enc.Encode(nil, []Field{{":path", "/images/i.png"}})...))
	dialogue = AppendFrame(dialogue, FrameRstStream, 0, 2, []byte{0, 0, 0, 8})

	f.Add(byte(0), dialogue)
	f.Add(byte(1), dialogue[:len(dialogue)-3])                 // truncated mid-frame
	f.Add(byte(3), dialogue[len(Preface):])                    // no preface
	f.Add(byte(0), []byte{0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1}) // oversized length
	f.Add(byte(0), []byte{0, 0, 0, 0, 0, 0x80, 0, 0, 1})       // reserved bit
	f.Add(byte(2), AppendFrame(nil, FrameHeaders, FlagEndHeaders, 3,
		[]byte{0x00, 0x02, 'a', 'b', 0x01, 'v', 0x40, 0x01, 0x01, 'z', 0x81}))
	f.Add(byte(7), AppendFrame(nil, FrameSettings, 0, 0, []byte{0, 2, 0, 0, 0}))

	f.Fuzz(func(t *testing.T, chunk byte, data []byte) {
		var r FrameReader
		var frames []Frame
		// Chunk size 0 means feed everything at once; otherwise the
		// stream arrives in (chunk mod 17)+1-byte slices.
		step := int(chunk%17) + 1
		if chunk == 0 {
			step = len(data) + 1
		}
		for off := 0; off < len(data); off += step {
			end := min(off+step, len(data))
			fs, err := r.Feed(data[off:end])
			for _, fr := range fs {
				// Payloads alias the reader's buffer only until the
				// next Feed; copy to retain.
				fr.Payload = bytes.Clone(fr.Payload)
				frames = append(frames, fr)
			}
			if err != nil {
				return
			}
		}
		_ = r.CloseCheck()
		var dec Decoder
		for _, fr := range frames {
			switch fr.Type {
			case FrameHeaders:
				_, _ = dec.Decode(fr.Payload)
			case FramePushPromise:
				if len(fr.Payload) >= 4 {
					_, _ = dec.Decode(fr.Payload[4:])
				}
			case FrameSettings:
				_, _ = parseSettings(fr.Payload)
			}
		}
	})
}

// oracleTable is the dynamic table as it was before the ring: a slice
// kept newest first by building a fresh one around every insertion.
// The ring must number, find and evict exactly as it does.
type oracleTable struct {
	dyn []Field
}

func (t *oracleTable) lookup(f Field) (exact int, name int) {
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
	for i, d := range t.dyn {
		idx := len(staticTable) + i + 1
		if d.Name == f.Name {
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

func (t *oracleTable) at(i int) (Field, bool) {
	if i >= 1 && i <= len(staticTable) {
		return staticTable[i-1], true
	}
	i -= len(staticTable) + 1
	if i >= 0 && i < len(t.dyn) {
		return t.dyn[i], true
	}
	return Field{}, false
}

func (t *oracleTable) insert(f Field) {
	if len(t.dyn) >= dynTableCap {
		t.dyn = t.dyn[:dynTableCap-1]
	}
	t.dyn = append([]Field{f}, t.dyn...)
}

// checkTableAgainstOracle inserts fields into a ring table and the
// slice oracle, unconditionally (so that a long enough list evicts), and
// demands after every insertion that both find the next field at the
// same indexes and hold the same field at every wire index, the first
// one past the table included.
func checkTableAgainstOracle(t *testing.T, fields []Field) {
	t.Helper()
	var ring table
	var oracle oracleTable
	for n, f := range fields {
		ge, gn := ring.lookup(f)
		we, wn := oracle.lookup(f)
		if ge != we || gn != wn {
			t.Fatalf("after %d insertions: lookup(%q=%q) = (%d, %d), oracle (%d, %d)", n, f.Name, f.Value, ge, gn, we, wn)
		}
		ring.insert(f)
		oracle.insert(f)
		for i := 0; i <= len(staticTable)+dynTableCap+1; i++ {
			got, err := ring.at(i)
			want, ok := oracle.at(i)
			if (err == nil) != ok || got != want {
				t.Fatalf("after %d insertions: at(%d) = %v, %v; oracle %v, %v", n+1, i, got, err, want, ok)
			}
		}
	}
}

func TestRingTableMatchesSliceTable(t *testing.T) {
	var fields []Field
	for i := 0; i < 2*dynTableCap+7; i++ {
		// Names repeat (name-only matches, also against the static
		// table); every third field repeats an earlier pair exactly.
		f := Field{Name: []string{"etag", "x-a", "x-b"}[i%3], Value: string(rune('a' + i%53))}
		if i%3 == 2 {
			f = fields[i/2]
		}
		fields = append(fields, f)
	}
	checkTableAgainstOracle(t, fields)
}

// FuzzHeaderCoder drives the HPACK-style header coder from both
// directions: the raw input is decoded as a hostile header block
// (must never panic or over-read), and is also deterministically
// carved into header fields that are encoded and decoded across
// several blocks on one table pair — the round trip must reproduce
// the fields exactly, including dynamic-table insertions and
// evictions. The same fields drive the ring table against the slice
// table it replaced; the eviction seed carves into more than
// dynTableCap of them.
func FuzzHeaderCoder(f *testing.F) {
	var enc Encoder
	f.Add(enc.Encode(nil, []Field{{":method", "GET"}, {":path", "/"}, {"etag", `"x1"`}}))
	f.Add([]byte{0x81, 0x40, 0x02, 0x01, 'v', 0x00, 0x01, 'n', 0x01, 'w'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})                            // varint overflow
	f.Add([]byte{0x00, 0x7f, 'a'})                                         // string length past block
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 'n', 0x01, 'v'}, dynTableCap+4)) // force evictions
	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile pass: arbitrary bytes through a fresh decoder.
		var hostile Decoder
		_, _ = hostile.Decode(data)

		// Round-trip pass: carve the input into fields, three blocks'
		// worth, sharing one encoder/decoder pair so the dynamic
		// tables must stay synchronized across blocks.
		var blocks [][]Field
		fields := make([]Field, 0, 8)
		for i := 0; i+2 <= len(data); i += 2 {
			name := string(data[i : i+1])
			val := string(data[i+1 : i+2])
			if len(staticTable) > 0 && data[i]%3 == 0 {
				name = staticTable[int(data[i])%len(staticTable)].Name
			}
			fields = append(fields, Field{Name: name, Value: val})
			if len(fields) == 4 {
				blocks = append(blocks, fields)
				fields = make([]Field, 0, 8)
			}
		}
		if len(fields) > 0 {
			blocks = append(blocks, fields)
		}
		var all []Field
		for _, b := range blocks {
			all = append(all, b...)
		}
		checkTableAgainstOracle(t, all)
		var e Encoder
		var d Decoder
		for bi, want := range blocks {
			block := e.Encode(nil, want)
			got, err := d.Decode(block)
			if err != nil {
				t.Fatalf("block %d: decode of encoder output failed: %v", bi, err)
			}
			if len(got) != len(want) {
				t.Fatalf("block %d: round trip changed field count %d -> %d", bi, len(want), len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("block %d field %d: %q=%q round-tripped to %q=%q",
						bi, i, want[i].Name, want[i].Value, got[i].Name, got[i].Value)
				}
			}
		}
	})
}

// FuzzBurstDecode checks the aggregated-response parser never panics
// or over-reads, and that whatever it accepts survives an
// encode/decode round trip.
func FuzzBurstDecode(f *testing.F) {
	f.Add(EncodeBurst([]BurstRecord{
		{Path: "/", ContentType: "text/html", ETag: `"e"`, LastModified: "Mon, 01 Jan 1996 00:00:00 GMT", Body: []byte("<html>")},
	}))
	f.Add([]byte("/a b 3 c d\nxyz/e f 0 g h\n"))
	f.Add([]byte("/a b 99 c d\nshort"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeBurst(data)
		if err != nil {
			return
		}
		again, err := DecodeBurst(EncodeBurst(recs))
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if again[i].Path != recs[i].Path || !bytes.Equal(again[i].Body, recs[i].Body) {
				t.Fatalf("record %d changed in round trip", i)
			}
		}
	})
}
