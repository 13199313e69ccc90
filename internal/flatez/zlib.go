package flatez

// Adler32 computes the RFC 1950 checksum of data, continuing from a prior
// value (pass 1 to start).
func Adler32(prior uint32, data []byte) uint32 {
	const mod = 65521
	a := prior & 0xffff
	b := prior >> 16
	for i := 0; i < len(data); {
		// Process in spans small enough to defer the modulo.
		end := i + 5552
		if end > len(data) {
			end = len(data)
		}
		for ; i < end; i++ {
			a += uint32(data[i])
			b += a
		}
		a %= mod
		b %= mod
	}
	return b<<16 | a
}

// ZlibCompress wraps a deflate stream in the RFC 1950 container.
func ZlibCompress(data []byte, level int) []byte {
	return ZlibCompressDict(data, nil, level)
}

// ZlibCompressDict wraps a deflate stream compressed against a preset
// dictionary, setting the FDICT flag and DICTID per RFC 1950 §2.2.
func ZlibCompressDict(data, dict []byte, level int) []byte {
	body := CompressDict(data, dict, level)
	out := make([]byte, 0, len(body)+10)
	cmf := byte(0x78) // deflate, 32K window
	var flevel byte
	switch {
	case level <= 1:
		flevel = 0
	case level <= 5:
		flevel = 1
	case level <= 6:
		flevel = 2
	default:
		flevel = 3
	}
	flg := flevel << 6
	if dict != nil {
		flg |= 0x20 // FDICT
	}
	rem := (uint16(cmf)<<8 | uint16(flg)) % 31
	if rem != 0 {
		flg += byte(31 - rem)
	}
	out = append(out, cmf, flg)
	if dict != nil {
		dictID := Adler32(1, dict)
		out = append(out, byte(dictID>>24), byte(dictID>>16), byte(dictID>>8), byte(dictID))
	}
	out = append(out, body...)
	sum := Adler32(1, data)
	out = append(out, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
	return out
}

// Ratio returns compressed size over original size (smaller is better),
// the measure the paper quotes (e.g. ~0.27 for lower-case HTML tags).
func Ratio(original, compressed []byte) float64 {
	if len(original) == 0 {
		return 1
	}
	return float64(len(compressed)) / float64(len(original))
}
