package webgen

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/flatez"
	"repro/internal/htmlparse"
	"repro/internal/mux"
	"repro/internal/sim"
)

// Object is one servable resource.
type Object struct {
	Path        string
	ContentType string
	// Body is never written once the site is built: servers queue it to
	// TCP by reference, so every run on the site, and every packet trace
	// a run keeps, shares these bytes.
	Body         []byte
	ETag         string
	LastModified string
}

// lastModified is the fixed timestamp all site objects carry (the site is
// static during a run, like the paper's).
const lastModified = "Fri, 20 Jun 1997 08:30:00 GMT"

// Site is a synthesized web site: one HTML page plus its inline images.
type Site struct {
	HTML    *Object
	Images  []*SynthImage
	objects map[string]*Object
	paths   []string

	// deflated holds the deflate coding of every text/html object,
	// built by the first Deflated call. A site is immutable once
	// constructed, so the artifact is computed once and lives and dies
	// with the site; Revise and CSSified return new sites with their own.
	deflateOnce sync.Once
	deflated    map[string][]byte

	// linkIndex, likewise, is built by the first LinkIndex call.
	indexOnce sync.Once
	linkIndex *htmlparse.PageIndex

	// burst, likewise, is built by the first Burst call.
	burstOnce sync.Once
	burst     map[string][]byte
}

// Options tunes site synthesis.
type Options struct {
	// Seed drives all deterministic randomness (default 1).
	Seed uint64
	// TagCase selects HTML markup case (default lower).
	TagCase TagCase
	// HTMLBytes overrides the page size (default the paper's 42 KB).
	HTMLBytes int
}

// Microscape synthesizes the paper's test site.
func Microscape(opts Options) (*Site, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	specs := MicroscapeSpecs()
	site := &Site{objects: make(map[string]*Object), Images: make([]*SynthImage, len(specs))}
	// Each image is a pure function of its spec and seed and lands in its
	// own slot, so the site does not depend on how the pool schedules them.
	err := sim.ForEach(runtime.GOMAXPROCS(0), len(specs), func(i int) (err error) {
		site.Images[i], err = Synthesize(specs[i], opts.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, img := range site.Images {
		site.addObject(&Object{
			Path:        imagePath(img.Spec),
			ContentType: "image/gif",
			Body:        img.GIF,
		})
	}
	site.HTML = &Object{Path: "/", ContentType: "text/html", Body: MicroscapeHTML(opts)}
	site.addObjectFirst(site.HTML)
	return site, nil
}

// MicroscapeHTML generates the page Microscape(opts) serves, without
// synthesizing the images it references: the page depends only on their
// paths, which the specs fix.
func MicroscapeHTML(opts Options) []byte {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	specs := MicroscapeSpecs()
	imagePaths := make([]string, len(specs))
	for i, spec := range specs {
		imagePaths[i] = imagePath(spec)
	}
	return GenerateHTML(HTMLOptions{
		TargetBytes: opts.HTMLBytes,
		Images:      imagePaths,
		TagCase:     opts.TagCase,
		Seed:        opts.Seed,
	})
}

func imagePath(spec Spec) string { return "/images/" + spec.Name }

func (s *Site) addObject(o *Object) {
	o.ETag = fmt.Sprintf("%q", fmt.Sprintf("%x-%x", flatez.Adler32(1, o.Body), len(o.Body)))
	o.LastModified = lastModified
	s.objects[o.Path] = o
	s.paths = append(s.paths, o.Path)
}

func (s *Site) addObjectFirst(o *Object) {
	o.ETag = fmt.Sprintf("%q", fmt.Sprintf("%x-%x", flatez.Adler32(1, o.Body), len(o.Body)))
	o.LastModified = lastModified
	s.objects[o.Path] = o
	s.paths = append([]string{o.Path}, s.paths...)
}

// Object returns the resource at path.
func (s *Site) Object(path string) (*Object, bool) {
	o, ok := s.objects[path]
	return o, ok
}

// Deflated returns the precomputed deflate coding of the text/html
// object at path ("the server does not perform on-the-fly compression
// but sends out a pre-computed deflated version of the Microscape HTML
// page"). Only text/html is precompressed; images are already compressed
// by their format. The returned bytes are shared by every caller and
// must not be modified. Safe for concurrent use.
func (s *Site) Deflated(path string) ([]byte, bool) {
	s.deflateOnce.Do(func() {
		s.deflated = make(map[string][]byte)
		for _, p := range s.paths {
			if obj := s.objects[p]; obj.ContentType == "text/html" {
				s.deflated[p] = flatez.Compress(obj.Body)
			}
		}
	})
	body, ok := s.deflated[path]
	return body, ok
}

// LinkIndex returns the link index of the page's HTML, which the robot
// replays instead of parsing the page on every run. Like Deflated, it is
// built by the first call and shared, unmodified, for the life of the
// site; safe for concurrent use.
func (s *Site) LinkIndex() *htmlparse.PageIndex {
	s.indexOnce.Do(func() { s.linkIndex = htmlparse.IndexPage(s.HTML.Body) })
	return s.linkIndex
}

// Burst returns the Http-Burst body for the text/html object at path:
// the page and every inline object it references, packed as records
// (mux.EncodeBurst). Like Deflated, the bodies are built by the first
// call and shared, unmodified, for the life of the site; safe for
// concurrent use.
func (s *Site) Burst(path string) ([]byte, bool) {
	s.burstOnce.Do(func() {
		s.burst = make(map[string][]byte)
		for _, p := range s.paths {
			obj := s.objects[p]
			if obj.ContentType != "text/html" {
				continue
			}
			recs := []mux.BurstRecord{burstRecord(obj)}
			for _, link := range s.InlineLinks(p) {
				if o, ok := s.objects[link]; ok {
					recs = append(recs, burstRecord(o))
				}
			}
			s.burst[p] = mux.EncodeBurst(recs)
		}
	})
	body, ok := s.burst[path]
	return body, ok
}

func burstRecord(o *Object) mux.BurstRecord {
	return mux.BurstRecord{Path: o.Path, ContentType: o.ContentType, ETag: o.ETag, LastModified: o.LastModified, Body: o.Body}
}

// Paths lists all resource paths, page first.
func (s *Site) Paths() []string { return s.paths }

// InlineLinks returns the inline object paths the page at path
// references, in document order, or nil when path is not the page.
// It is the link structure server push and burst aggregation follow.
func (s *Site) InlineLinks(path string) []string {
	if s.HTML == nil || path != s.HTML.Path {
		return nil
	}
	return s.paths[1:]
}

// ObjectCount returns the number of resources (1 page + images).
func (s *Site) ObjectCount() int { return len(s.paths) }

// StaticImageBytes totals the encoded static GIFs.
func (s *Site) StaticImageBytes() int {
	n := 0
	for _, img := range s.Images {
		if img.Static() {
			n += len(img.GIF)
		}
	}
	return n
}

// AnimationBytes totals the encoded GIF animations.
func (s *Site) AnimationBytes() int {
	n := 0
	for _, img := range s.Images {
		if !img.Static() {
			n += len(img.GIF)
		}
	}
	return n
}

// TotalBytes is the full payload: HTML plus all images.
func (s *Site) TotalBytes() int {
	return len(s.HTML.Body) + s.StaticImageBytes() + s.AnimationBytes()
}
