package pngenc

import (
	"fmt"

	"repro/internal/flatez"
)

// MNG support: a minimal MNG-LC style container for animations, the
// PNG-family replacement for animated GIF evaluated by the paper. Frames
// share one top-level palette and are stored as embedded PNG image
// streams (IHDR/IDAT/IEND without per-frame PLTE), compressed with
// deflate. Frame timing is carried in FRAM chunks.
//
// Simplification versus the full MNG specification (documented in
// DESIGN.md): the FRAM chunk carries only framing mode and interframe
// delay, and no Delta-PNG is used. Size savings relative to animated GIF
// come from the shared palette and deflate, which is the effect the paper
// measures.

var mngSignature = []byte{0x8a, 'M', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// EncodeMNG serializes frames (which must share dimensions and palette)
// with per-frame delays in hundredths of a second.
func EncodeMNG(frames []*Image, delaysCS []int) ([]byte, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("pngenc: no frames")
	}
	if len(delaysCS) != len(frames) {
		return nil, fmt.Errorf("pngenc: %d delays for %d frames", len(delaysCS), len(frames))
	}
	first := frames[0]
	if err := first.Validate(); err != nil {
		return nil, err
	}
	for _, f := range frames[1:] {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		if f.W != first.W || f.H != first.H {
			return nil, fmt.Errorf("pngenc: frame dimensions differ")
		}
		if len(f.Palette) != len(first.Palette) {
			return nil, fmt.Errorf("pngenc: frame palettes differ")
		}
	}
	depth := bitDepth(len(first.Palette))

	out := append([]byte(nil), mngSignature...)

	mhdr := make([]byte, 28)
	putU32(mhdr[0:], uint32(first.W))
	putU32(mhdr[4:], uint32(first.H))
	putU32(mhdr[8:], 100) // ticks per second
	putU32(mhdr[12:], uint32(len(frames)))
	putU32(mhdr[16:], uint32(len(frames)))
	total := 0
	for _, d := range delaysCS {
		total += d
	}
	putU32(mhdr[20:], uint32(total))
	putU32(mhdr[24:], 1) // simplicity: MNG-LC
	out = appendChunk(out, "MHDR", mhdr)

	plte := make([]byte, 3*len(first.Palette))
	for i, c := range first.Palette {
		plte[3*i], plte[3*i+1], plte[3*i+2] = c.R, c.G, c.B
	}
	out = appendChunk(out, "PLTE", plte)

	var prevFiltered []byte
	for i, f := range frames {
		fram := make([]byte, 10)
		fram[0] = 1 // framing mode 1
		fram[1] = 0 // no subframe name
		fram[2] = 2 // change interframe delay for this subframe
		putU32(fram[6:], uint32(delaysCS[i]))
		out = appendChunk(out, "FRAM", fram)

		ihdr := make([]byte, 13)
		putU32(ihdr[0:], uint32(f.W))
		putU32(ihdr[4:], uint32(f.H))
		ihdr[8] = byte(depth)
		ihdr[9] = 3
		out = appendChunk(out, "IHDR", ihdr)
		filtered := filterScanlines(packScanlines(f, depth), f.H, rowBytes(f.W, depth))
		// Frames after the first compress against the previous frame's
		// scanline stream as a preset dictionary — the inter-frame
		// redundancy exploitation that Delta-PNG provides in full MNG.
		out = appendChunk(out, "IDAT", flatez.ZlibCompressDict(filtered, prevFiltered, level))
		out = appendChunk(out, "IEND", nil)
		prevFiltered = filtered
	}
	out = appendChunk(out, "MEND", nil)
	return out, nil
}
