package webgen

import (
	"bytes"
	"testing"

	"repro/internal/gifenc"
)

// oracleGIF is the reference for Synthesize: the search as first written,
// which renders and fully encodes every probe and keeps the encoding
// nearest the target (the earliest on a tie).
func oracleGIF(spec Spec, seed uint64) ([]byte, error) {
	hi := 600
	encode := func(scale int) ([]byte, error) { return gifenc.Encode(renderStatic(spec, scale, seed)) }
	if spec.Role == RoleAnimation {
		hi = 400
		encode = func(scale int) ([]byte, error) {
			return gifenc.EncodeAnimation(renderAnimation(spec, scale, seed, animationFrames), 0)
		}
	}
	var best []byte
	bestErr := 1 << 30
	for lo := 1; lo <= hi; {
		mid := (lo + hi) / 2
		data, err := encode(mid)
		if err != nil {
			return nil, err
		}
		if d := abs(len(data) - spec.Target); d < bestErr {
			bestErr = d
			best = data
		}
		if len(data) < spec.Target {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, nil
}

// checkAgainstOracle requires img to be the image the oracle search
// synthesizes for its spec at seed, byte for byte.
func checkAgainstOracle(t *testing.T, img *SynthImage, seed uint64) {
	t.Helper()
	want, err := oracleGIF(img.Spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.GIF, want) {
		t.Errorf("%s (%v, target %d) at seed %d: %d bytes, the oracle's search gives %d",
			img.Spec.Name, img.Spec.Role, img.Spec.Target, seed, len(img.GIF), len(want))
	}
}

// Sizing probes against a cap instead of encoding them changes no image:
// every GIF the site, its revisions and synthesis at other targets
// produce is the one the full-encode search produces.
func TestSynthesizeMatchesOracle(t *testing.T) {
	s := site(t)
	t.Run("site", func(t *testing.T) {
		for _, img := range s.Images {
			checkAgainstOracle(t, img, 1)
		}
		for _, spec := range MicroscapeSpecs() {
			img, err := Synthesize(spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, img, 2)
		}
	})
	// The fresh images of a revision, at the seeds the range experiment's
	// first three repetitions revise with.
	t.Run("revisions", func(t *testing.T) {
		for _, seed := range []uint64{10001, 10014, 10027} {
			revised, err := s.Revise(0.3, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, img := range revised.Images {
				if img != s.Images[i] {
					checkAgainstOracle(t, img, seed+uint64(i)*977+13)
				}
			}
		}
	})
	// Every role over a target ladder. The smallest targets lie below half
	// the header of the larger palettes, so every probe is capped and the
	// search takes its fallback.
	t.Run("ladder", func(t *testing.T) {
		for role := RoleSpacer; role <= RoleAnimation; role++ {
			for _, target := range []int{20, 150, 1000, 6000} {
				spec := Spec{Name: "ladder.gif", Role: role, Target: target}
				img, err := Synthesize(spec, 3)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, img, 3)
			}
		}
	})
}
