package pngenc

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	stdpng "image/png"
	"io"
)

// The package's decoders are the standard library's: image/png for PNG.
// MNG has no standard-library decoder, so decodeMNG inflates each frame
// with compress/zlib and hands it to image/png as a standalone PNG.

// decode decodes a PNG with image/png and requires a paletted result.
func decode(data []byte) (*image.Paletted, error) {
	m, err := stdpng.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	p, ok := m.(*image.Paletted)
	if !ok {
		return nil, fmt.Errorf("decoded %T, want *image.Paletted", m)
	}
	return p, nil
}

// sameImage reports whether p holds img's dimensions, pixels and palette.
func sameImage(p *image.Paletted, img *Image) bool {
	if p.Rect.Dx() != img.W || p.Rect.Dy() != img.H || !bytes.Equal(p.Pix, img.Pixels) || len(p.Palette) != len(img.Palette) {
		return false
	}
	for i, c := range img.Palette {
		if p.Palette[i] != (color.RGBA{c.R, c.G, c.B, 255}) {
			return false
		}
	}
	return true
}

type chunk struct {
	typ  string
	data []byte
}

// chunks splits a PNG or MNG stream that starts with the 8-byte signature
// sig into its chunks, checking each CRC with hash/crc32.
func chunks(data, sig []byte) ([]chunk, error) {
	if !bytes.HasPrefix(data, sig) {
		return nil, errors.New("bad signature")
	}
	var out []chunk
	for rest := data[len(sig):]; len(rest) > 0; {
		if len(rest) < 12 {
			return nil, errors.New("truncated chunk header")
		}
		n := int(binary.BigEndian.Uint32(rest))
		if len(rest) < 12+n {
			return nil, errors.New("truncated chunk body")
		}
		typ := string(rest[4:8])
		if crc32.ChecksumIEEE(rest[4:8+n]) != binary.BigEndian.Uint32(rest[8+n:]) {
			return nil, fmt.Errorf("CRC mismatch in %s", typ)
		}
		out = append(out, chunk{typ, rest[8 : 8+n]})
		rest = rest[12+n:]
	}
	return out, nil
}

// mngInfo is a decoded MNG stream.
type mngInfo struct {
	w, h     int
	frames   []*image.Paletted
	delaysCS []int
}

// decodeMNG decodes a stream EncodeMNG wrote. A frame's IDAT may be
// compressed against the previous frame's filtered scanlines as a preset
// dictionary; it is inflated with zlib.NewReaderDict, re-wrapped with the
// frame's IHDR and the shared PLTE as a standalone PNG, and decoded.
func decodeMNG(data []byte) (*mngInfo, error) {
	cs, err := chunks(data, mngSignature)
	if err != nil {
		return nil, err
	}
	info := &mngInfo{}
	var plte, ihdr, prev []byte
	delay, sawMEND := 0, false
	for _, c := range cs {
		switch c.typ {
		case "MHDR":
			if len(c.data) != 28 {
				return nil, fmt.Errorf("MHDR length %d", len(c.data))
			}
			info.w, info.h = int(binary.BigEndian.Uint32(c.data)), int(binary.BigEndian.Uint32(c.data[4:]))
		case "PLTE":
			plte = c.data
		case "FRAM":
			if len(c.data) >= 10 && c.data[2] == 2 {
				delay = int(binary.BigEndian.Uint32(c.data[6:]))
			}
		case "IHDR":
			ihdr = c.data
		case "IDAT":
			zr, err := zlib.NewReaderDict(bytes.NewReader(c.data), prev)
			if err != nil {
				return nil, err
			}
			if prev, err = io.ReadAll(zr); err != nil {
				return nil, err
			}
			var z bytes.Buffer
			zw := zlib.NewWriter(&z)
			zw.Write(prev)
			zw.Close()
			png := appendChunk(append([]byte(nil), pngSignature...), "IHDR", ihdr)
			png = appendChunk(png, "PLTE", plte)
			png = appendChunk(png, "IDAT", z.Bytes())
			frame, err := decode(appendChunk(png, "IEND", nil))
			if err != nil {
				return nil, fmt.Errorf("frame %d: %w", len(info.frames), err)
			}
			info.frames = append(info.frames, frame)
			info.delaysCS = append(info.delaysCS, delay)
		case "MEND":
			sawMEND = true
		}
	}
	if !sawMEND || len(info.frames) == 0 {
		return nil, errors.New("no frames or no MEND")
	}
	return info, nil
}
