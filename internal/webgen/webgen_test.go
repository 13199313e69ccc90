package webgen

import (
	"bytes"
	"image/gif"
	"image/png"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/css"
	"repro/internal/flatez"
	"repro/internal/htmlparse"
	"repro/internal/mux"
)

// The paper's GIF totals, which the specs' targets add up to.
const (
	paperStaticGIFBytes    = 103299 // the 40 static images
	paperAnimationGIFBytes = 24988  // the 2 animations
)

var (
	siteOnce sync.Once
	siteVal  *Site
	siteErr  error
)

// site synthesizes Microscape once for the whole test package.
func site(t *testing.T) *Site {
	t.Helper()
	siteOnce.Do(func() { siteVal, siteErr = Microscape(Options{Seed: 1}) })
	if siteErr != nil {
		t.Fatal(siteErr)
	}
	return siteVal
}

func TestSiteShape(t *testing.T) {
	s := site(t)
	if s.ObjectCount() != 43 {
		t.Fatalf("objects = %d, want 43 (1 page + 42 images)", s.ObjectCount())
	}
	if s.Paths()[0] != "/" {
		t.Fatalf("first path = %q, want /", s.Paths()[0])
	}
	if len(s.Images) != 42 {
		t.Fatalf("images = %d, want 42", len(s.Images))
	}
	if got := len(s.HTML.Body); got < 38000 || got > 46000 {
		t.Fatalf("HTML = %d bytes, want ≈42000", got)
	}
}

func TestImageTotalsNearPaper(t *testing.T) {
	s := site(t)
	static := s.StaticImageBytes()
	if ratio := float64(static) / paperStaticGIFBytes; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("static GIF total = %d, want within 10%% of %d", static, paperStaticGIFBytes)
	}
	anim := s.AnimationBytes()
	if ratio := float64(anim) / paperAnimationGIFBytes; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("animation total = %d, want within 15%% of %d", anim, paperAnimationGIFBytes)
	}
	// "Over half of the data was contained in a single image and two
	// animations."
	var splash int
	for _, img := range s.Images {
		if img.Spec.Name == "splash_main.gif" {
			splash = len(img.GIF)
		}
	}
	if splash+anim <= (static+anim)/2 {
		t.Fatalf("largest image (%d) + animations (%d) should dominate total %d", splash, anim, static+anim)
	}
}

func TestImageSizeHistogram(t *testing.T) {
	s := site(t)
	var under1K, oneTo2K, twoTo3K int
	for _, img := range s.Images {
		if !img.Static() {
			continue
		}
		switch n := len(img.GIF); {
		case n < 1024:
			under1K++
		case n < 2048:
			oneTo2K++
		case n < 3072:
			twoTo3K++
		}
	}
	// The paper: 19 under 1KB, 7 in 1-2KB, 6 in 2-3KB. Allow ±2 for
	// boundary noise in the synthesis.
	if under1K < 17 || under1K > 21 {
		t.Errorf("images under 1KB = %d, want ≈19", under1K)
	}
	if oneTo2K < 5 || oneTo2K > 9 {
		t.Errorf("images 1-2KB = %d, want ≈7", oneTo2K)
	}
	if twoTo3K < 4 || twoTo3K > 8 {
		t.Errorf("images 2-3KB = %d, want ≈6", twoTo3K)
	}
}

func TestEveryImageTargetHit(t *testing.T) {
	s := site(t)
	for _, img := range s.Images {
		got, want := len(img.GIF), img.Spec.Target
		tol := want / 5
		if tol < 60 {
			tol = 60
		}
		if got < want-tol || got > want+tol {
			t.Errorf("%s: %d bytes, target %d", img.Spec.Name, got, want)
		}
	}
}

func TestHTMLReferencesAllImages(t *testing.T) {
	s := site(t)
	var e htmlparse.LinkExtractor
	links := e.Feed(s.HTML.Body)
	var imgs []string
	for _, l := range links {
		if l.Kind == htmlparse.LinkImage {
			imgs = append(imgs, l.URL)
		}
	}
	if len(imgs) != 42 {
		t.Fatalf("HTML references %d images, want 42", len(imgs))
	}
	for _, u := range imgs {
		if _, ok := s.Object(u); !ok {
			t.Errorf("referenced image %q not servable", u)
		}
	}
}

func TestImagesAreValidGIFs(t *testing.T) {
	s := site(t)
	for _, img := range s.Images {
		g, err := gif.DecodeAll(bytes.NewReader(img.GIF))
		if err != nil {
			t.Fatalf("%s: %v", img.Spec.Name, err)
		}
		if img.Static() && len(g.Image) != 1 {
			t.Errorf("%s: %d frames for static image", img.Spec.Name, len(g.Image))
		}
		if !img.Static() && len(g.Image) < 2 {
			t.Errorf("%s: %d frames for animation", img.Spec.Name, len(g.Image))
		}
	}
}

func TestDeterministicSynthesis(t *testing.T) {
	a := site(t)
	b, err := Microscape(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.HTML.Body, b.HTML.Body) {
		t.Fatal("HTML not deterministic")
	}
	for i := range a.Images {
		if !bytes.Equal(a.Images[i].GIF, b.Images[i].GIF) {
			t.Fatalf("image %d not deterministic", i)
		}
	}
}

// objects lists a site's objects in serving order, every field of each.
func objects(s *Site) []Object {
	var out []Object
	for _, p := range s.Paths() {
		o, _ := s.Object(p)
		out = append(out, *o)
	}
	return out
}

// Synthesis and conversion run on a pool as wide as GOMAXPROCS; each
// image is written to its own slot, so the bytes, validators and object
// order must not depend on the width.
func TestSynthesisIndependentOfGOMAXPROCS(t *testing.T) {
	type build struct {
		site, revised []Object
		conv          ConversionReport
	}
	at := func(procs int) build {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := Microscape(Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Revise(0.3, 10001)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := s.ConvertImages()
		if err != nil {
			t.Fatal(err)
		}
		return build{objects(s), objects(r), conv}
	}
	one, four := at(1), at(4)
	if !reflect.DeepEqual(one.site, four.site) {
		t.Error("Microscape differs between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(one.revised, four.revised) {
		t.Error("Revise(0.3, 10001) differs between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(one.conv, four.conv) {
		t.Error("ConvertImages differs between GOMAXPROCS 1 and 4")
	}
}

func TestETagsDistinct(t *testing.T) {
	s := site(t)
	seen := map[string]string{}
	for _, p := range s.Paths() {
		o, _ := s.Object(p)
		if o.ETag == "" || o.LastModified == "" {
			t.Fatalf("%s: missing validators", p)
		}
		if prev, dup := seen[o.ETag]; dup {
			t.Fatalf("ETag %s shared by %s and %s", o.ETag, prev, p)
		}
		seen[o.ETag] = p
	}
}

func TestHTMLCompressesLikePaper(t *testing.T) {
	// "the Microscape HTML page ... compressed more than a factor of
	// three from 42K to 11K".
	s := site(t)
	comp := flatez.Compress(s.HTML.Body)
	ratio := float64(len(comp)) / float64(len(s.HTML.Body))
	if ratio > 0.40 {
		t.Fatalf("HTML deflate ratio %.3f, want ≤ 0.40", ratio)
	}
	if ratio < 0.15 {
		t.Fatalf("HTML deflate ratio %.3f suspiciously strong; content too repetitive", ratio)
	}
}

func TestTagCaseAffectsCompression(t *testing.T) {
	// The paper: lower-case tags compress best (~0.27 vs ~0.35). The page
	// is the site's (TestMicroscapeHTMLMatchesSite); its images play no
	// part.
	lower := MicroscapeHTML(Options{Seed: 3, TagCase: TagsLower})
	mixed := MicroscapeHTML(Options{Seed: 3, TagCase: TagsMixed})
	rLower := flatez.Ratio(lower, flatez.Compress(lower))
	rMixed := flatez.Ratio(mixed, flatez.Compress(mixed))
	if rLower >= rMixed {
		t.Fatalf("lower-case ratio %.3f not better than mixed %.3f", rLower, rMixed)
	}
}

func TestFigureOneReplacement(t *testing.T) {
	r := FigureOneReplacement()
	if r.GIFBytes != 682 {
		t.Fatalf("Figure 1 GIF bytes = %d", r.GIFBytes)
	}
	// "The HTML and CSS version only takes up around 150 bytes."
	if r.CSSBytes() < 100 || r.CSSBytes() > 170 {
		t.Fatalf("Figure 1 replacement = %d bytes, want ≈150", r.CSSBytes())
	}
	// "the number of bytes ... reduced by a factor of more than 4".
	if r.GIFBytes < 4*r.CSSBytes() {
		t.Fatalf("reduction factor %.1f, want > 4", float64(r.GIFBytes)/float64(r.CSSBytes()))
	}
}

func TestCSSReplacementsReport(t *testing.T) {
	s := site(t)
	rep := s.CSSReplacements()
	if rep.RequestsSaved < 10 {
		t.Fatalf("requests saved = %d, want a substantial fraction of 42", rep.RequestsSaved)
	}
	if len(rep.Replacements)+len(rep.Kept) != 42 {
		t.Fatalf("replacement partition %d+%d != 42", len(rep.Replacements), len(rep.Kept))
	}
	if rep.NetSavings() <= 0 {
		t.Fatalf("net savings = %d, want positive", rep.NetSavings())
	}
	for _, r := range rep.Replacements {
		if !r.Role.Replaceable() {
			t.Errorf("%s: role %v should not be replaceable", r.Name, r.Role)
		}
	}
	for _, k := range rep.Kept {
		if k.Spec.Role.Replaceable() {
			t.Errorf("%s: replaceable image kept", k.Spec.Name)
		}
	}
}

func TestCSSifiedSite(t *testing.T) {
	s := site(t)
	rep := s.CSSReplacements()
	cssified, err := s.CSSified(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cssified.ObjectCount(), 43-rep.RequestsSaved; got != want {
		t.Fatalf("cssified objects = %d, want %d", got, want)
	}
	if !bytes.Contains(cssified.HTML.Body, []byte("<style")) {
		t.Fatal("cssified page has no style block")
	}
	if cssified.TotalBytes() >= s.TotalBytes() {
		t.Fatalf("cssified payload %d not smaller than original %d", cssified.TotalBytes(), s.TotalBytes())
	}
	// The page still parses and references only the kept images.
	var e htmlparse.LinkExtractor
	imgs := 0
	for _, l := range e.Feed(cssified.HTML.Body) {
		if l.Kind == htmlparse.LinkImage {
			imgs++
		}
	}
	if imgs != len(rep.Kept) {
		t.Fatalf("cssified page references %d images, want %d", imgs, len(rep.Kept))
	}
}

func TestConvertImages(t *testing.T) {
	s := site(t)
	rep, err := s.ConvertImages()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Static) != 40 || len(rep.Animations) != 2 {
		t.Fatalf("conversion covers %d static + %d anim", len(rep.Static), len(rep.Animations))
	}
	// The paper: PNG saves ~11% of static image bytes overall...
	if rep.StaticSaved() <= 0 {
		t.Fatalf("PNG conversion grew statics: GIF %d → PNG %d", rep.StaticGIF, rep.StaticPNG)
	}
	// ...but the smallest images get bigger ("PNG does not perform as
	// well on the very low bit depth images in the sub-200 byte
	// category").
	grew := 0
	for _, c := range rep.Static {
		if c.GIFBytes < 400 && c.Saved() < 0 {
			grew++
		}
	}
	if grew == 0 {
		t.Error("expected some tiny images to grow under PNG, like the paper")
	}
	// MNG beats animated GIF clearly (paper: 24988 → 16329).
	if rep.AnimSaved() <= 0 {
		t.Fatalf("MNG conversion grew animations: %d → %d", rep.AnimGIF, rep.AnimMNG)
	}
	// Converted files must be valid.
	for _, c := range rep.Static {
		if _, err := png.Decode(bytes.NewReader(c.Data)); err != nil {
			t.Fatalf("%s: converted PNG invalid: %v", c.Name, err)
		}
	}
}

func TestRoleStrings(t *testing.T) {
	for r := RoleSpacer; r <= RoleAnimation; r++ {
		if r.String() == "unknown" {
			t.Errorf("role %d unnamed", r)
		}
	}
	if !RoleBanner.Replaceable() || RolePhoto.Replaceable() {
		t.Fatal("replaceability wrong")
	}
}

func TestSpecTargetsMatchPaperTotals(t *testing.T) {
	var static, anim int
	count := map[Role]int{}
	for _, s := range MicroscapeSpecs() {
		count[s.Role]++
		if s.Role == RoleAnimation {
			anim += s.Target
		} else {
			static += s.Target
		}
	}
	if static != paperStaticGIFBytes {
		t.Fatalf("static targets sum to %d, want %d", static, paperStaticGIFBytes)
	}
	if anim != paperAnimationGIFBytes {
		t.Fatalf("animation targets sum to %d, want %d", anim, paperAnimationGIFBytes)
	}
	if count[RoleAnimation] != 2 {
		t.Fatalf("animations = %d, want 2", count[RoleAnimation])
	}
}

func TestTagCaseString(t *testing.T) {
	if TagsLower.String() != "lower" || TagsMixed.String() != "mixed" || TagsUpper.String() != "upper" {
		t.Fatal("tag case names wrong")
	}
}

func TestHTMLContainsNoUnclosedTables(t *testing.T) {
	s := site(t)
	html := string(s.HTML.Body)
	if strings.Count(html, "<table") != strings.Count(html, "</table>") {
		t.Fatal("unbalanced tables")
	}
	if strings.Count(html, "<p>") != strings.Count(html, "</p>") {
		t.Fatal("unbalanced paragraphs")
	}
}

// ChangedFrom counts objects whose validators differ from the original
// site's (including the page).
func (s *Site) ChangedFrom(orig *Site) int {
	n := 0
	for _, path := range s.Paths() {
		a, _ := s.Object(path)
		b, ok := orig.Object(path)
		if !ok || a.ETag != b.ETag {
			n++
		}
	}
	return n
}

func TestRevise(t *testing.T) {
	s := site(t)
	revised, err := s.Revise(0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if revised.ObjectCount() != s.ObjectCount() {
		t.Fatalf("revision changed object count: %d vs %d", revised.ObjectCount(), s.ObjectCount())
	}
	for i, p := range s.Paths() {
		if revised.Paths()[i] != p {
			t.Fatalf("revision changed paths: %s vs %s", revised.Paths()[i], p)
		}
	}
	changed := revised.ChangedFrom(s)
	// The page always changes; ~30% of 42 images should.
	if changed < 8 || changed > 22 {
		t.Fatalf("changed objects = %d, want ≈13", changed)
	}
	// The page must be among the changed.
	a, _ := revised.Object("/")
	b, _ := s.Object("/")
	if a.ETag == b.ETag {
		t.Fatal("revision did not change the page")
	}
	if a.LastModified == b.LastModified {
		t.Fatal("revised page kept the old Last-Modified")
	}
	// Unchanged objects keep identical bytes and validators.
	same := 0
	for _, p := range s.Paths()[1:] {
		ra, _ := revised.Object(p)
		rb, _ := s.Object(p)
		if ra.ETag == rb.ETag {
			if !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s: same ETag, different body", p)
			}
			same++
		}
	}
	if same == 0 {
		t.Fatal("no object survived the revision unchanged")
	}
	// Deterministic.
	again, err := s.Revise(0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if again.ChangedFrom(revised) != 0 {
		t.Fatal("revision not deterministic")
	}
}

// markupElement pulls the tag and class out of replacement markup, which
// the generator writes as "<TAG CLASS=name>" plus text.
func markupElement(markup string) (tag, class string, ok bool) {
	open, _, ok := strings.Cut(strings.TrimPrefix(markup, "<"), ">")
	fields := strings.Fields(open)
	if !ok || !strings.HasPrefix(markup, "<") || len(fields) == 0 {
		return "", "", false
	}
	for _, f := range fields[1:] {
		if k, v, isAttr := strings.Cut(f, "="); isAttr && strings.EqualFold(k, "class") {
			class = v
		}
	}
	return strings.ToLower(fields[0]), class, true
}

// tagClassSelector reports whether sel is "tag.class" or ".class", the
// only selectors the generator writes, and whether it matches the
// element.
func tagClassSelector(sel css.Selector, tag, class string) (kind, matches bool) {
	if len(sel.Simple) != 1 || len(sel.Simple[0].Classes) != 1 || sel.Simple[0].ID != "" || len(sel.Simple[0].Pseudos) != 0 {
		return false, false
	}
	ss := sel.Simple[0]
	return true, (ss.Element == "" || strings.EqualFold(ss.Element, tag)) && strings.EqualFold(ss.Classes[0], class)
}

func TestCSSReplacementRulesMatchTheirMarkup(t *testing.T) {
	// Every generated replacement rule must actually match the element
	// its markup creates, and give banners the font/background treatment
	// of the paper's Figure 1.
	s := site(t)
	rep := s.CSSReplacements()
	var src strings.Builder
	for _, r := range rep.Replacements {
		src.WriteString(r.Style)
		src.WriteString("\n")
	}
	sheet, err := css.Parse(src.String())
	if err != nil {
		t.Fatalf("generated styles do not parse: %v", err)
	}
	if warns := sheet.Validate(); len(warns) != 0 {
		t.Fatalf("generated styles use non-CSS1 properties: %v", warns)
	}
	for _, rule := range sheet.Rules {
		for _, sel := range rule.Selectors {
			if kind, _ := tagClassSelector(sel, "", ""); !kind {
				t.Fatalf("selector %q is not tag.class or .class", sel)
			}
		}
	}
	for _, r := range rep.Replacements {
		if r.Markup == "" {
			continue // spacers are replaced by layout properties alone
		}
		tag, class, ok := markupElement(r.Markup)
		if !ok {
			t.Errorf("%s: markup %q has no start tag", r.Name, r.Markup)
			continue
		}
		style := map[string]string{}
		for _, rule := range sheet.Rules {
			if slices.ContainsFunc(rule.Selectors, func(sel css.Selector) bool {
				_, matches := tagClassSelector(sel, tag, class)
				return matches
			}) {
				for _, d := range rule.Decls {
					style[d.Property] = d.Value
				}
			}
		}
		if len(style) == 0 {
			t.Errorf("%s: no rule matches markup %q", r.Name, r.Markup)
			continue
		}
		if r.Role == RoleBanner {
			for _, prop := range []string{"color", "background", "font", "padding"} {
				if _, ok := style[prop]; !ok {
					t.Errorf("%s: banner style missing %q", r.Name, prop)
				}
			}
		}
	}
}

// The deflate artifact belongs to the site: built once however many
// callers race for it, shared by all of them, the page's exact deflate
// coding, and a revised site has its own.
func TestDeflatedBuiltOncePerSite(t *testing.T) {
	s := site(t)
	revised, err := s.Revise(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The revision is fresh: its first Deflated calls race each other.
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = revised.Deflated("/")
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if len(b) == 0 || &b[0] != &got[0][0] {
			t.Fatalf("caller %d got its own copy of the artifact", i)
		}
	}
	page, err := flatez.Decompress(got[0])
	if err != nil || !bytes.Equal(page, revised.HTML.Body) {
		t.Fatalf("revised artifact does not inflate to the revised page (err %v)", err)
	}

	orig, ok := s.Deflated("/")
	if !ok || !bytes.Equal(orig, flatez.Compress(s.HTML.Body)) {
		t.Fatal("artifact is not flatez.Compress of the page")
	}
	if bytes.Equal(orig, got[0]) {
		t.Error("the revised site serves the original's artifact")
	}
	if n := testing.AllocsPerRun(10, func() { s.Deflated("/") }); n != 0 {
		t.Errorf("a later Deflated call allocates %v times, want 0", n)
	}
	if _, ok := s.Deflated(s.Paths()[1]); ok {
		t.Error("an image has a deflate coding; only text/html is precompressed")
	}
	if _, ok := s.Deflated("/missing"); ok {
		t.Error("a missing path has a deflate coding")
	}
}

// MicroscapeHTML is the page Microscape serves, without the images.
func TestMicroscapeHTMLMatchesSite(t *testing.T) {
	if !bytes.Equal(MicroscapeHTML(Options{}), site(t).HTML.Body) {
		t.Error("MicroscapeHTML(default) differs from the default site's page")
	}
	if testing.Short() {
		return
	}
	opts := Options{Seed: 2, TagCase: TagsMixed, HTMLBytes: 9000}
	s, err := Microscape(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MicroscapeHTML(opts), s.HTML.Body) {
		t.Errorf("MicroscapeHTML(%+v) differs from that site's page", opts)
	}
}

// The page's link index is the same kind of artifact: built once however
// many callers race for it, from the site's own page, shared by all of
// them, free to fetch again, and a revised or CSS-ified site has its own.
func TestLinkIndexBuiltOncePerSite(t *testing.T) {
	s := site(t)
	revised, err := s.Revise(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cssified, err := s.CSSified(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The revision is fresh: its first LinkIndex calls race each other.
	got := make([]*htmlparse.PageIndex, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = revised.LinkIndex()
		}(i)
	}
	wg.Wait()
	for i, x := range got {
		if x == nil || x != got[0] {
			t.Fatalf("caller %d got its own index", i)
		}
	}
	css := cssified.LinkIndex()
	for _, c := range []struct {
		site *Site
		x    *htmlparse.PageIndex
	}{{revised, got[0]}, {cssified, css}} {
		if want := htmlparse.IndexPage(c.site.HTML.Body).InlineURLs(); !slices.Equal(c.x.InlineURLs(), want) {
			t.Fatalf("index lists %v, not the inline links of its own site's page %v", c.x.InlineURLs(), want)
		}
	}
	// The shared site may have its index already (another test, -count).
	orig := s.LinkIndex()
	if orig == got[0] || orig == css {
		t.Error("a derived site shares the original's index")
	}
	if a, b := orig.InlineURLs(), css.InlineURLs(); len(b) >= len(a) {
		t.Errorf("the CSS-ified page's index lists %d inline links, the original's %d", len(b), len(a))
	}
	if n := testing.AllocsPerRun(10, func() { s.LinkIndex() }); n != 0 {
		t.Errorf("a later LinkIndex call allocates %v times, want 0", n)
	}
}

// The burst body is a site artifact too: built once however many callers
// race for it, shared by all of them, decoding to the page and then every
// inline object with its validators, and a revised site has its own.
func TestBurstBuiltOncePerSite(t *testing.T) {
	s := site(t)
	revised, err := s.Revise(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = revised.Burst("/")
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if len(b) == 0 || &b[0] != &got[0][0] {
			t.Fatalf("caller %d got its own copy of the burst body", i)
		}
	}
	for _, c := range []struct {
		site *Site
		body []byte
	}{{revised, got[0]}, {s, nil}} {
		if c.body == nil {
			c.body, _ = c.site.Burst("/")
		}
		recs, err := mux.DecodeBurst(c.body)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != c.site.ObjectCount() {
			t.Fatalf("burst body holds %d records, the site %d objects", len(recs), c.site.ObjectCount())
		}
		for i, r := range recs {
			o, _ := c.site.Object(c.site.Paths()[i])
			if r.Path != o.Path || r.ContentType != o.ContentType || r.ETag != o.ETag ||
				r.LastModified != o.LastModified || !bytes.Equal(r.Body, o.Body) {
				t.Fatalf("record %d (%s) is not the site's object %s", i, r.Path, o.Path)
			}
		}
	}
	orig, _ := s.Burst("/")
	if bytes.Equal(orig, got[0]) {
		t.Error("the revised site serves the original's burst body")
	}
	if n := testing.AllocsPerRun(10, func() { s.Burst("/") }); n != 0 {
		t.Errorf("a later Burst call allocates %v times, want 0", n)
	}
	if _, ok := s.Burst(s.Paths()[1]); ok {
		t.Error("an image has a burst body; only text/html pages aggregate")
	}
}
