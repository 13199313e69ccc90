package webgen

import (
	"runtime"

	"repro/internal/gifenc"
	"repro/internal/pngenc"
	"repro/internal/sim"
)

// Conversion is one image's GIF→PNG (or animated GIF→MNG) conversion.
type Conversion struct {
	Name     string
	Role     Role
	GIFBytes int
	NewBytes int // len(Data)
	// Data is the PNG or MNG file. It stays out of the -json report,
	// which gives sizes only.
	Data []byte `json:"-"`
}

// Saved is the byte saving (negative when PNG is larger, which the paper
// observed for very small images).
func (c Conversion) Saved() int { return c.GIFBytes - c.NewBytes }

// ConversionReport aggregates the format-conversion experiment.
type ConversionReport struct {
	Static     []Conversion
	Animations []Conversion

	StaticGIF, StaticPNG int
	AnimGIF, AnimMNG     int
}

// StaticSaved is the byte saving over the static images.
func (r ConversionReport) StaticSaved() int { return r.StaticGIF - r.StaticPNG }

// AnimSaved is the byte saving over the animations.
func (r ConversionReport) AnimSaved() int { return r.AnimGIF - r.AnimMNG }

// toPNGImage converts the shared paletted representation.
func toPNGImage(img *gifenc.Image) *pngenc.Image {
	out := &pngenc.Image{W: img.W, H: img.H, Pixels: img.Pixels}
	out.Palette = make([]pngenc.Color, len(img.Palette))
	for i, c := range img.Palette {
		out.Palette[i] = pngenc.Color{R: c.R, G: c.G, B: c.B}
	}
	return out
}

// ConvertImages runs the paper's batch conversion: every static GIF to
// PNG, every animation to MNG. The images are encoded on the pool, each
// into its own slot, and totalled in site order.
func (s *Site) ConvertImages() (ConversionReport, error) {
	convs := make([]Conversion, len(s.Images))
	err := sim.ForEach(runtime.GOMAXPROCS(0), len(s.Images), func(i int) (err error) {
		convs[i], err = convert(s.Images[i])
		return err
	})
	if err != nil {
		return ConversionReport{}, err
	}
	var rep ConversionReport
	for i, img := range s.Images {
		c := convs[i]
		if img.Static() {
			rep.Static = append(rep.Static, c)
			rep.StaticGIF += c.GIFBytes
			rep.StaticPNG += c.NewBytes
		} else {
			rep.Animations = append(rep.Animations, c)
			rep.AnimGIF += c.GIFBytes
			rep.AnimMNG += c.NewBytes
		}
	}
	return rep, nil
}

// convert encodes one image as PNG, or as MNG when it is an animation.
func convert(img *SynthImage) (Conversion, error) {
	var data []byte
	var err error
	if img.Static() {
		data, err = pngenc.Encode(toPNGImage(img.Image))
	} else {
		frames := make([]*pngenc.Image, len(img.Frames))
		delays := make([]int, len(img.Frames))
		for i, f := range img.Frames {
			frames[i] = toPNGImage(f.Image)
			delays[i] = f.DelayCS
		}
		data, err = pngenc.EncodeMNG(frames, delays)
	}
	if err != nil {
		return Conversion{}, err
	}
	return Conversion{Name: img.Spec.Name, Role: img.Spec.Role, GIFBytes: len(img.GIF), NewBytes: len(data), Data: data}, nil
}
