package webgen

import (
	"runtime"
	"slices"

	"repro/internal/sim"
)

// revisedLastModified is the timestamp carried by objects changed in a
// revision.
const revisedLastModified = "Sun, 06 Jul 1997 09:00:00 GMT"

// Revise returns a copy of the site as it might look on a later visit:
// the page text has been edited and roughly `fraction` of the images have
// been replaced (new pixels, new validators), while paths and page
// structure are unchanged so a cache primed on the original still maps
// onto it. This is the workload behind the paper's range-request
// discussion: "When a browser revisits a page ... it can both make a
// validation request and also simultaneously request the metadata of the
// embedded object if there has been any change."
func (s *Site) Revise(fraction float64, seed uint64) (*Site, error) {
	if seed == 0 {
		seed = 1
	}
	// Draw every choice first; the fresh images are then synthesized on
	// the pool, each a pure function of its spec and seed.
	rng := sim.NewRand(seed ^ 0x5EED1E)
	var fresh []int
	for i := range s.Images {
		if rng.Float64() < fraction {
			fresh = append(fresh, i)
		}
	}
	site := &Site{objects: make(map[string]*Object), Images: slices.Clone(s.Images)}
	err := sim.ForEach(runtime.GOMAXPROCS(0), len(fresh), func(k int) (err error) {
		i := fresh[k]
		site.Images[i], err = Synthesize(s.Images[i].Spec, seed+uint64(i)*977+13)
		return err
	})
	if err != nil {
		return nil, err
	}
	var imagePaths []string
	for i, use := range site.Images {
		path := imagePath(use.Spec)
		imagePaths = append(imagePaths, path)
		site.addObject(&Object{Path: path, ContentType: "image/gif", Body: use.GIF})
		if use != s.Images[i] {
			if obj, ok := site.Object(path); ok {
				obj.LastModified = revisedLastModified
			}
		}
	}
	// The page itself is always edited on a revision.
	html := GenerateHTML(HTMLOptions{
		Images: imagePaths,
		Seed:   seed ^ 0xED17,
	})
	site.HTML = &Object{Path: "/", ContentType: "text/html", Body: html}
	site.addObjectFirst(site.HTML)
	site.HTML.LastModified = revisedLastModified
	return site, nil
}
