// Package pngenc implements a PNG (RFC 2083) encoder and a minimal MNG-LC
// animation container, providing the "after" side of the paper's
// image-format experiment (GIF→PNG, animated GIF→MNG), which measures
// encoded sizes only.
//
// The encoder writes non-interlaced paletted (color type 3) images with
// adaptive per-scanline filtering, a gAMA chunk (the paper notes the
// converted images carry gamma information costing 16 bytes per image),
// and IDAT compressed at deflate level 6 with this repository's own zlib
// (internal/flatez). The package tests decode the output with the
// standard library's image/png.
package pngenc

import (
	"fmt"

	"repro/internal/flatez"
)

// level is the deflate level of every IDAT stream.
const level = 6

var pngSignature = []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// Color is an RGB palette entry.
type Color struct{ R, G, B byte }

// Image is a paletted image (the shape shared with gifenc, so conversion
// is lossless).
type Image struct {
	W, H    int
	Palette []Color
	Pixels  []byte // W*H palette indices
}

// Validate checks structural invariants.
func (m *Image) Validate() error {
	if m.W <= 0 || m.H <= 0 {
		return fmt.Errorf("pngenc: bad dimensions %dx%d", m.W, m.H)
	}
	if len(m.Palette) < 1 || len(m.Palette) > 256 {
		return fmt.Errorf("pngenc: palette size %d out of range", len(m.Palette))
	}
	if len(m.Pixels) != m.W*m.H {
		return fmt.Errorf("pngenc: %d pixels for %dx%d image", len(m.Pixels), m.W, m.H)
	}
	for i, p := range m.Pixels {
		if int(p) >= len(m.Palette) {
			return fmt.Errorf("pngenc: pixel %d references color %d beyond palette", i, p)
		}
	}
	return nil
}

// bitDepth picks the smallest PNG palette bit depth for n colors.
func bitDepth(n int) int {
	switch {
	case n <= 2:
		return 1
	case n <= 4:
		return 2
	case n <= 16:
		return 4
	default:
		return 8
	}
}

// Encode serializes the image as a paletted PNG.
func Encode(img *Image) ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	depth := bitDepth(len(img.Palette))

	out := append([]byte(nil), pngSignature...)
	ihdr := make([]byte, 13)
	putU32(ihdr[0:], uint32(img.W))
	putU32(ihdr[4:], uint32(img.H))
	ihdr[8] = byte(depth)
	ihdr[9] = 3 // color type: palette
	out = appendChunk(out, "IHDR", ihdr)

	gama := make([]byte, 4)
	putU32(gama, 45455) // gamma 1/2.2 scaled by 100000
	out = appendChunk(out, "gAMA", gama)

	plte := make([]byte, 3*len(img.Palette))
	for i, c := range img.Palette {
		plte[3*i], plte[3*i+1], plte[3*i+2] = c.R, c.G, c.B
	}
	out = appendChunk(out, "PLTE", plte)

	filtered := filterScanlines(packScanlines(img, depth), img.H, rowBytes(img.W, depth))
	out = appendChunk(out, "IDAT", flatez.ZlibCompress(filtered, level))
	out = appendChunk(out, "IEND", nil)
	return out, nil
}

// rowBytes is the packed size of one scanline at the given depth.
func rowBytes(w, depth int) int { return (w*depth + 7) / 8 }

// packScanlines packs palette indices at the given bit depth, one row per
// scanline, without filter bytes.
func packScanlines(img *Image, depth int) []byte {
	rb := rowBytes(img.W, depth)
	out := make([]byte, rb*img.H)
	for y := 0; y < img.H; y++ {
		row := out[y*rb:]
		switch depth {
		case 8:
			copy(row, img.Pixels[y*img.W:(y+1)*img.W])
		default:
			perByte := 8 / depth
			for x := 0; x < img.W; x++ {
				v := img.Pixels[y*img.W+x]
				shift := uint((perByte - 1 - x%perByte) * depth)
				row[x/perByte] |= v << shift
			}
		}
	}
	return out
}

// filterScanlines applies per-row adaptive filtering (minimum sum of
// absolute differences heuristic) and prepends the filter byte to each
// row. The left neighbour is one byte back, as for all packed palette
// data.
func filterScanlines(raw []byte, h, rb int) []byte {
	out := make([]byte, 0, (rb+1)*h)
	prev := make([]byte, rb)
	cand := make([][]byte, 5)
	for i := range cand {
		cand[i] = make([]byte, rb)
	}
	for y := 0; y < h; y++ {
		row := raw[y*rb : (y+1)*rb]
		for i := 0; i < rb; i++ {
			var left, up, ul byte
			if i >= 1 {
				left = row[i-1]
				ul = prev[i-1]
			}
			up = prev[i]
			cand[0][i] = row[i]
			cand[1][i] = row[i] - left
			cand[2][i] = row[i] - up
			cand[3][i] = row[i] - byte((int(left)+int(up))/2)
			cand[4][i] = row[i] - paeth(left, up, ul)
		}
		best, bestScore := 0, -1
		for f := 0; f < 5; f++ {
			score := 0
			for _, b := range cand[f] {
				v := int(int8(b))
				if v < 0 {
					v = -v
				}
				score += v
			}
			if bestScore < 0 || score < bestScore {
				best, bestScore = f, score
			}
		}
		out = append(out, byte(best))
		out = append(out, cand[best]...)
		copy(prev, row)
	}
	return out
}

// paeth is the PNG Paeth predictor.
func paeth(a, b, c byte) byte {
	p := int(a) + int(b) - int(c)
	pa, pb, pc := abs(p-int(a)), abs(p-int(b)), abs(p-int(c))
	if pa <= pb && pa <= pc {
		return a
	}
	if pb <= pc {
		return b
	}
	return c
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// appendChunk appends a PNG chunk: length, type, data, CRC.
func appendChunk(out []byte, typ string, data []byte) []byte {
	var lenb [4]byte
	putU32(lenb[:], uint32(len(data)))
	out = append(out, lenb[:]...)
	start := len(out)
	out = append(out, typ...)
	out = append(out, data...)
	crc := CRC32(out[start:])
	var crcb [4]byte
	putU32(crcb[:], crc)
	return append(out, crcb[:]...)
}
