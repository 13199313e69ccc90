// Package gifenc implements a GIF87a/89a encoder (including animated
// GIF89a with the Netscape looping extension), built on the LZW coder in
// internal/lzw. The package tests decode its output with the standard
// library's image/gif. It provides the "before" side of the paper's
// image-format experiment: the Microscape page's 40 static GIFs and 2 GIF
// animations, which are converted to PNG and MNG by internal/pngenc.
package gifenc

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/lzw"
)

// Color is one RGB palette entry.
type Color struct{ R, G, B byte }

// Image is a paletted image, the only kind GIF supports.
type Image struct {
	W, H    int
	Palette []Color // 2..256 entries
	Pixels  []byte  // W*H palette indices, row major
}

// Validate checks structural invariants.
func (m *Image) Validate() error {
	if m.W <= 0 || m.H <= 0 {
		return fmt.Errorf("gifenc: bad dimensions %dx%d", m.W, m.H)
	}
	if len(m.Palette) < 2 || len(m.Palette) > 256 {
		return fmt.Errorf("gifenc: palette size %d out of range", len(m.Palette))
	}
	if len(m.Pixels) != m.W*m.H {
		return fmt.Errorf("gifenc: %d pixels for %dx%d image", len(m.Pixels), m.W, m.H)
	}
	for i, p := range m.Pixels {
		if int(p) >= len(m.Palette) {
			return fmt.Errorf("gifenc: pixel %d references color %d beyond palette", i, p)
		}
	}
	return nil
}

// paletteBits returns the GIF color-table size exponent: the table holds
// 2^(n+1) entries.
func paletteBits(n int) int {
	bits := 1
	for 1<<uint(bits) < n {
		bits++
	}
	if bits < 1 {
		bits = 1
	}
	return bits
}

// Encode serializes a single-image GIF87a.
func Encode(img *Image) ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	var out []byte
	out = append(out, "GIF87a"...)
	out = appendLogicalScreen(out, img)
	out = appendImageData(out, img)
	out = append(out, 0x3B) // trailer
	return out, nil
}

// Frame is one animation frame with its display delay.
type Frame struct {
	Image *Image
	// DelayCS is the frame delay in hundredths of a second.
	DelayCS int
}

// EncodeAnimation serializes a GIF89a animation. All frames must share the
// first frame's dimensions and palette (a common authoring constraint that
// keeps the file small): only the first frame's palette is written, as
// the global color table. loop is the Netscape loop count (0 = forever).
func EncodeAnimation(frames []Frame, loop int) ([]byte, error) {
	if len(frames) == 0 {
		return nil, errors.New("gifenc: no frames")
	}
	first := frames[0].Image
	if err := first.Validate(); err != nil {
		return nil, err
	}
	for _, f := range frames[1:] {
		if err := f.Image.Validate(); err != nil {
			return nil, err
		}
		if f.Image.W != first.W || f.Image.H != first.H {
			return nil, errors.New("gifenc: frame dimensions differ")
		}
		if !slices.Equal(f.Image.Palette, first.Palette) {
			return nil, errors.New("gifenc: frame palette differs from the first frame's")
		}
	}
	var out []byte
	out = append(out, "GIF89a"...)
	out = appendLogicalScreen(out, first)

	// Netscape 2.0 looping application extension.
	out = append(out, 0x21, 0xFF, 11)
	out = append(out, "NETSCAPE2.0"...)
	out = append(out, 3, 1, byte(loop), byte(loop>>8), 0)

	for _, f := range frames {
		// Graphic control extension: delay, no transparency.
		out = append(out, 0x21, 0xF9, 4, 0, byte(f.DelayCS), byte(f.DelayCS>>8), 0, 0)
		out = appendImageData(out, f.Image)
	}
	out = append(out, 0x3B)
	return out, nil
}

// Byte counts of the fixed-size blocks the encoders write.
const (
	signatureLen      = 6          // "GIF87a" or "GIF89a"
	screenLen         = 7          // logical screen descriptor
	loopExtensionLen  = 3 + 11 + 5 // Netscape looping extension
	graphicControlLen = 8          // per-frame graphic control extension
	imageFramingLen   = 10 + 1 + 1 // descriptor, literal width, block terminator
	trailerLen        = 1
)

// Sizer measures an encoding from its pixels as they are drawn, without
// building it: the pixels' LZW code is only counted (lzw.Counter), and
// counting stops once the total reaches the limit, so a caller drawing
// the image can stop drawing there too. Call Image before each image's
// pixels, then Write them in order in any number of pieces.
type Sizer struct {
	n, limit int
	litWidth int
	code     *lzw.Counter // the current image's pixels
	over     bool         // the total has reached the limit
}

// NewSizer starts sizing Encode's output for an image with the given
// palette size against limit bytes.
func NewSizer(colors, limit int) *Sizer {
	return newSizer(signatureLen+screenLen+trailerLen, colors, limit)
}

// NewAnimationSizer starts sizing EncodeAnimation's output for frames
// images with the given palette size against limit bytes.
func NewAnimationSizer(colors, frames, limit int) *Sizer {
	return newSizer(signatureLen+screenLen+loopExtensionLen+frames*graphicControlLen+trailerLen, colors, limit)
}

func newSizer(n, colors, limit int) *Sizer {
	bits := paletteBits(colors)
	return &Sizer{n: n + 3<<uint(bits), limit: limit, litWidth: max(bits, 2)}
}

// Image starts the next image's pixels.
func (s *Sizer) Image() {
	s.endImage()
	if !s.over {
		s.n += imageFramingLen
		s.code = lzw.NewCounter(s.litWidth, s.limit-s.n)
	}
}

// Write counts the next pixels of the current image. It reports false
// once the total has reached the limit; the Sizer then reads no more.
func (s *Sizer) Write(pixels []byte) bool {
	if !s.over && !s.code.Write(pixels) {
		s.over = true
	}
	return !s.over
}

// Len ends the last image and returns the encoding's length and true
// when that is below the limit, else (limit, false).
func (s *Sizer) Len() (int, bool) {
	s.endImage()
	if s.over {
		return s.limit, false
	}
	return s.n, true
}

// endImage adds the current image's code to the total. The code travels
// in sub-blocks of up to 255 bytes behind a length byte each.
func (s *Sizer) endImage() {
	if s.code == nil {
		return
	}
	c, ok := s.code.Len()
	s.code = nil
	if s.n += c + (c+254)/255; !ok || s.n >= s.limit {
		s.over = true
	}
}

// literalWidth is the LZW minimum code size of img's pixels.
func literalWidth(img *Image) int { return max(paletteBits(len(img.Palette)), 2) }

func appendLogicalScreen(out []byte, img *Image) []byte {
	out = append(out, byte(img.W), byte(img.W>>8), byte(img.H), byte(img.H>>8))
	bits := paletteBits(len(img.Palette))
	// Global color table present; color resolution = bits; not sorted.
	packed := byte(0x80) | byte((bits-1)<<4) | byte(bits-1)
	out = append(out, packed, 0, 0)
	out = appendColorTable(out, img.Palette, bits)
	return out
}

func appendColorTable(out []byte, pal []Color, bits int) []byte {
	n := 1 << uint(bits)
	for i := 0; i < n; i++ {
		if i < len(pal) {
			out = append(out, pal[i].R, pal[i].G, pal[i].B)
		} else {
			out = append(out, 0, 0, 0)
		}
	}
	return out
}

func appendImageData(out []byte, img *Image) []byte {
	// Image descriptor at (0,0), no local color table, not interlaced.
	out = append(out, 0x2C, 0, 0, 0, 0,
		byte(img.W), byte(img.W>>8), byte(img.H), byte(img.H>>8), 0)
	litWidth := literalWidth(img)
	out = append(out, byte(litWidth))
	compressed := lzw.Compress(img.Pixels, litWidth)
	for off := 0; off < len(compressed); off += 255 {
		end := off + 255
		if end > len(compressed) {
			end = len(compressed)
		}
		out = append(out, byte(end-off))
		out = append(out, compressed[off:end]...)
	}
	out = append(out, 0) // block terminator
	return out
}
