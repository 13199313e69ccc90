package webgen

import (
	"fmt"
	"strings"

	"repro/internal/css"
)

// Replacement describes one image replaced by HTML+CSS, per the paper's
// CSS1 experiment.
type Replacement struct {
	Name     string
	Role     Role
	GIFBytes int
	// Markup is the in-page HTML that replaces the <img> tag.
	Markup string
	// Style is the compact CSS rule backing the markup ("" when layout
	// properties on existing elements suffice, as for spacers).
	Style string
}

// CSSBytes is the byte cost of the replacement (markup plus style).
func (r Replacement) CSSBytes() int { return len(r.Markup) + len(r.Style) }

// Saved is the byte saving versus the image (image bytes plus its ~40
// bytes of <img> markup, minus the replacement).
func (r Replacement) Saved() int {
	const imgTagBytes = 40
	return r.GIFBytes + imgTagBytes - r.CSSBytes()
}

// figureOneCSS is the paper's Figure 1 style rule, verbatim.
const figureOneCSS = `
	P.banner {
	  color: white;
	  background: #FC0;
	  font: bold oblique 20px sans-serif;
	  padding: 0.2em 10em 0.2em 1em;
	}
`

// FigureOneReplacement reproduces the paper's worked example: the
// 682-byte "solutions" GIF replaced by ~150 bytes of HTML and CSS.
func FigureOneReplacement() Replacement {
	sheet := css.MustParse(figureOneCSS)
	return Replacement{
		Name:     "solutions.gif",
		Role:     RoleBanner,
		GIFBytes: PaperBannerGIFBytes,
		Markup:   "<P CLASS=banner> solutions",
		Style:    sheet.Compact(),
	}
}

// replacementFor builds the HTML+CSS equivalent for one image, or returns
// false when the role is not replaceable.
func replacementFor(img *SynthImage) (Replacement, bool) {
	spec := img.Spec
	if !spec.Role.Replaceable() {
		return Replacement{}, false
	}
	r := Replacement{Name: spec.Name, Role: spec.Role, GIFBytes: len(img.GIF)}
	class := strings.TrimSuffix(spec.Name, ".gif")
	class = strings.ReplaceAll(class, "_", "")
	switch spec.Role {
	case RoleSpacer:
		// Layout spacing needs no element at all: padding/margins on the
		// surrounding markup do the work.
		r.Markup = ""
		r.Style = css.MustParse(fmt.Sprintf(".%s{margin-top:8px}", class)).Compact()
	case RoleBullet:
		r.Markup = fmt.Sprintf("<LI CLASS=%s>", class)
		r.Style = css.MustParse(fmt.Sprintf(
			"li.%s{list-style-type:square;color:#c00}", class)).Compact()
	case RoleBanner:
		text := spec.Text
		if text == "" {
			text = class
		}
		r.Markup = fmt.Sprintf("<P CLASS=%s> %s", class, text)
		r.Style = css.MustParse(fmt.Sprintf(
			"p.%s{color:white;background:#FC0;font:bold oblique 20px sans-serif;padding:0.2em 10em 0.2em 1em}",
			class)).Compact()
	}
	return r, true
}

// CSSReport summarizes the whole-page image→CSS analysis.
type CSSReport struct {
	Replacements []Replacement
	// Kept lists images CSS cannot replace.
	Kept []*SynthImage
	// GIFBytesRemoved is the image payload eliminated.
	GIFBytesRemoved int
	// CSSBytesAdded is the markup+style payload added to the page.
	CSSBytesAdded int
	// RequestsSaved is the drop in HTTP requests (one per removed image).
	RequestsSaved int
}

// NetSavings is the total payload reduction in bytes.
func (r CSSReport) NetSavings() int { return r.GIFBytesRemoved - r.CSSBytesAdded }

// CSSReplacements analyses every image on the site.
func (s *Site) CSSReplacements() CSSReport {
	var rep CSSReport
	for _, img := range s.Images {
		if r, ok := replacementFor(img); ok {
			rep.Replacements = append(rep.Replacements, r)
			rep.GIFBytesRemoved += r.GIFBytes
			rep.CSSBytesAdded += r.CSSBytes()
			rep.RequestsSaved++
		} else {
			rep.Kept = append(rep.Kept, img)
		}
	}
	return rep
}

// CSSified builds the site variant with replaceable images removed: the
// page carries a <style> block and replacement markup, and only the
// non-replaceable images remain as separate resources.
func (s *Site) CSSified(opts Options) (*Site, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	report := s.CSSReplacements()

	var styles, markup strings.Builder
	for _, r := range report.Replacements {
		styles.WriteString(r.Style)
		styles.WriteString("\n")
		if r.Markup != "" {
			markup.WriteString(r.Markup)
			markup.WriteString("\n")
		}
	}

	site := &Site{objects: make(map[string]*Object)}
	var imagePaths []string
	for _, img := range report.Kept {
		site.Images = append(site.Images, img)
		path := imagePath(img.Spec)
		imagePaths = append(imagePaths, path)
		site.addObject(&Object{Path: path, ContentType: "image/gif", Body: img.GIF})
	}
	html := GenerateHTML(HTMLOptions{
		TargetBytes: opts.HTMLBytes,
		Images:      imagePaths,
		TagCase:     opts.TagCase,
		Seed:        opts.Seed,
		InlineCSS:   styles.String(),
		ExtraMarkup: markup.String(),
	})
	site.HTML = &Object{Path: "/", ContentType: "text/html", Body: html}
	site.addObjectFirst(site.HTML)
	return site, nil
}
