// Package lzw implements the Lempel-Ziv-Welch coding family used by two
// substrates of the reproduction:
//
//   - the GIF flavor (variable code width, LSB-first packing, CLEAR/EOI
//     control codes) used by the GIF encoder in internal/gifenc, whose
//     output the package tests decode with the standard library's
//     compress/lzw, and
//   - a BTLZ-style adaptive dictionary coder approximating the V.42bis
//     compression of 28.8k modems, used by the PPP link model for the
//     paper's "deflate beats modem compression" experiment.
package lzw

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

const (
	maxGIFWidth = 12
	maxCodes    = 1 << maxGIFWidth
)

// encTable is a reusable encoder dictionary for one literal width.
type encTable struct {
	// entries maps prefix<<litWidth|symbol to a code, stamped with gen in
	// the high bits so a CLEAR invalidates every entry without zeroing.
	entries []int32
	gen     int32
	// runs[c] lists the codes of c², c³, … in the order they were made.
	// A run string is only ever made from the next shorter one, so the
	// list is complete: the dictionary holds c^k exactly for k up to
	// len(runs[c])+1.
	runs [][]uint16
}

// newGen stamps a new generation, which empties the table; when the
// stamp wraps, the table is zeroed instead.
func (t *encTable) newGen() {
	t.gen += 1 << 16
	if t.gen < 0 {
		t.gen = 1 << 16
		clear(t.entries)
	}
	for c := range t.runs {
		t.runs[c] = t.runs[c][:0]
	}
}

// dictFree keeps released tables by literal width: a table holds
// maxCodes rows as wide as the palette, 64 KB for a 4-colour image and
// 4 MB for a 256-colour one. Unlike a sync.Pool, which every GC empties,
// the lists survive collections, so a table is made and zeroed once per
// width and worker rather than once per GC cycle. Most of what that
// saves is GC work, not coding: each remade table is fresh allocation
// that brings the next cycle closer, while kept tables raise the live
// heap the pacer sizes its goal from, so collections come less often
// (`httpperf -table all` runs less than half as many). A change that
// shrinks these tables or stops keeping them should re-measure it.
//
// Each list holds at most GOMAXPROCS tables, as many as can code at once
// when every worker codes an image; a table released to a full list is
// dropped. A table is made only when its list is empty, so no more are
// kept than were once in use together.
var dictFree [9]struct {
	sync.Mutex
	tables []*encTable
}

func getTable(litWidth uint) *encTable {
	l := &dictFree[litWidth]
	l.Lock()
	if n := len(l.tables); n > 0 {
		t := l.tables[n-1]
		l.tables = l.tables[:n-1]
		l.Unlock()
		return t
	}
	l.Unlock()
	return &encTable{entries: make([]int32, maxCodes<<litWidth), runs: make([][]uint16, 1<<litWidth)}
}

// Compress encodes data in GIF-variant LZW with the given literal width
// (2..8 bits). The output begins with a CLEAR code and ends with EOI, as
// GIF image data requires. It panics on a byte of data that does not fit
// the literal width.
func Compress(data []byte, litWidth int) []byte {
	var c coder
	c.start(litWidth, bitWriter{budget: math.MaxInt})
	c.write(data)
	c.close()
	return c.w.bytes()
}

// Counter sizes Compress's output for an input that arrives in pieces,
// such as an image drawn a row at a time. It runs Compress's coder but
// keeps only a count of the bits, and stops reading as soon as the count
// shows the output reaching its limit, so sizing an input against a
// small limit costs only the prefix that fills it, and the caller need
// not produce the rest. Like Compress it panics on a byte beyond the
// literal width, once the coder reaches it.
type Counter struct {
	c     coder
	limit int
}

// NewCounter starts counting the GIF-variant LZW coding of an input
// against limit bytes.
func NewCounter(litWidth, limit int) *Counter {
	k := &Counter{limit: limit}
	if limit <= 0 {
		k.c.full = true
		return k
	}
	// The output reaches limit bytes once it holds more than limit-1
	// whole bytes of bits.
	w := bitWriter{counting: true, budget: math.MaxInt}
	if limit <= math.MaxInt/8 {
		w.budget = 8*(limit-1) + 1
	}
	k.c.start(litWidth, w)
	return k
}

// Write codes the next piece of the input. It reports false once the
// output has reached the limit; the counter then reads no more.
func (k *Counter) Write(p []byte) bool {
	k.c.write(p)
	return !k.c.full
}

// Len ends the input and returns len(Compress(input, litWidth)) and true
// when that is below the limit, else (limit, false).
func (k *Counter) Len() (int, bool) {
	k.c.close()
	if n := (k.c.w.bits + 7) / 8; n < k.limit {
		return n, true
	}
	return k.limit, false
}

// coder is the GIF-variant LZW coder. It takes its input in any number
// of write calls and hands every code to w, until w has taken its budget
// of bits.
type coder struct {
	w     bitWriter
	tbl   *encTable // nil once the coder is closed or full
	lw    uint
	width uint
	next  int
	cur   int  // code of the pending match; -1 before the first symbol
	sym   int  // the pending match's first symbol
	run   int  // the match is sym repeated run times; 0 when it is not a run
	full  bool // w has taken its budget
}

func (c *coder) start(litWidth int, w bitWriter) {
	if litWidth < 2 || litWidth > 8 {
		panic(fmt.Sprintf("lzw: literal width %d out of range", litWidth))
	}
	c.lw = uint(litWidth)
	c.w = w
	c.tbl = getTable(c.lw)
	c.tbl.newGen()
	c.width = c.lw + 1
	c.next = 1<<c.lw + 2
	c.cur = -1
	c.w.writeBits(1<<c.lw, c.width) // CLEAR
}

// write codes p. The dictionary is a flat array indexed by
// prefix<<litWidth|symbol, much faster than a map here (codes are
// bounded by maxCodes). A match that is a pure run of one symbol is
// extended by jumping along that symbol's run list instead, as far as
// the run in p and the list both reach, so a flat stretch costs one step
// per code emitted rather than a dependent probe per byte.
func (c *coder) write(p []byte) {
	if c.tbl == nil || len(p) == 0 {
		return
	}
	lw := c.lw
	clearCode := 1 << lw
	dict, runs, gen := c.tbl.entries, c.tbl.runs, c.tbl.gen
	i := 0
	if c.cur < 0 {
		if int(p[0]) >= clearCode {
			panic(symbolPanic(p[0], int(lw)))
		}
		c.cur, c.sym, c.run = int(p[0]), int(p[0]), 1
		i = 1
	}
	cur, sym, run := c.cur, c.sym, c.run
	for i < len(p) {
		b := p[i]
		if int(b) >= clearCode {
			panic(symbolPanic(b, int(lw)))
		}
		if run > 0 && int(b) == sym {
			end := i + runLength(p[i:], b)
			for {
				top := len(runs[b]) + 1
				if run+end-i <= top {
					run += end - i
					cur, i = runCode(runs[b], sym, run), end
					break
				}
				// The list runs out before the input's run does: the
				// match stops at b^top, and b^(top+1) becomes a code.
				i += top - run
				if !c.add(runCode(runs[b], sym, top), sym, true) {
					return
				}
				gen = c.tbl.gen
				cur, run = sym, 1
				if i++; i == end {
					break
				}
			}
			continue
		}
		if v := dict[cur<<lw|int(b)]; v&^0xffff == gen {
			cur, run = int(v&0xffff), 0
			i++
			continue
		}
		if !c.add(cur, int(b), false) {
			return
		}
		gen = c.tbl.gen
		cur, sym, run = int(b), int(b), 1
		i++
	}
	c.cur, c.sym, c.run = cur, sym, run
}

// add sends cur, whose match the next symbol b does not extend, and
// makes cur+b a code (a run of b when isRun), emptying the dictionary
// once it is full. It reports false, and releases the table, once the
// writer has taken its budget.
func (c *coder) add(cur, b int, isRun bool) bool {
	c.w.writeBits(uint32(cur), c.width)
	if c.w.bits >= c.w.budget {
		c.full = true
		c.release()
		return false
	}
	t := c.tbl
	t.entries[cur<<c.lw|b] = t.gen | int32(c.next)
	if isRun {
		t.runs[b] = append(t.runs[b], uint16(c.next))
	}
	c.next++
	// Widen when the next code to be emitted would not fit.
	if c.next > 1<<c.width && c.width < maxGIFWidth {
		c.width++
	}
	if c.next >= maxCodes {
		c.w.writeBits(uint32(1<<c.lw), c.width) // CLEAR
		c.width, c.next = c.lw+1, 1<<c.lw+2
		t.newGen()
	}
	return true
}

// runCode is the code of sym repeated k times, given sym's run list.
func runCode(list []uint16, sym, k int) int {
	if k == 1 {
		return sym
	}
	return int(list[k-2])
}

// runLength counts the leading bytes of p equal to b, a word at a time.
func runLength(p []byte, b byte) int {
	pat := uint64(b) * 0x0101010101010101
	n := 0
	for ; len(p)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(p[n:]) ^ pat; x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < len(p) && p[n] == b {
		n++
	}
	return n
}

// close ends the input: it sends the pending match and EOI.
func (c *coder) close() {
	if c.tbl == nil {
		return
	}
	if c.cur >= 0 {
		c.w.writeBits(uint32(c.cur), c.width)
		// The decoder reserves a dictionary slot for every code it reads,
		// so the width bookkeeping must advance here too before EOI goes
		// out (compress/lzw's Close does the same incHi).
		c.next++
		if c.next > 1<<c.width && c.width < maxGIFWidth {
			c.width++
		}
	}
	c.w.writeBits(uint32(1<<c.lw+1), c.width) // EOI
	c.release()
}

// release returns the table to its free list; the coder reads no more.
func (c *coder) release() {
	l := &dictFree[c.lw]
	l.Lock()
	if len(l.tables) < runtime.GOMAXPROCS(0) {
		l.tables = append(l.tables, c.tbl)
	}
	l.Unlock()
	c.tbl = nil
}

func symbolPanic(b byte, litWidth int) string {
	return fmt.Sprintf("lzw: symbol %d beyond literal width %d", b, litWidth)
}

// bitWriter packs codes LSB-first (GIF order). A counting writer packs
// nothing and only totals the bits.
type bitWriter struct {
	out      []byte
	acc      uint32
	nacc     uint
	counting bool
	bits     int // every bit written so far
	budget   int // the coder stops feeding the writer once bits reaches it
}

func (w *bitWriter) writeBits(v uint32, n uint) {
	w.bits += int(n)
	if w.counting {
		return
	}
	w.acc |= v << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

func (w *bitWriter) bytes() []byte {
	if w.nacc > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
	return w.out
}
