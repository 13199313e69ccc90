package css

import (
	"strings"
	"testing"
	"testing/quick"
)

// paperBanner is the paper's Figure 1 replacement style, verbatim.
const paperBanner = `
	P.banner {
	  color: white;
	  background: #FC0;
	  font: bold oblique 20px sans-serif;
	  padding: 0.2em 10em 0.2em 1em;
	}
`

func TestParsePaperExample(t *testing.T) {
	s, err := Parse(paperBanner)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(s.Rules))
	}
	r := s.Rules[0]
	if len(r.Selectors) != 1 || r.Selectors[0].String() != "p.banner" {
		t.Fatalf("selector = %q", r.Selectors[0].String())
	}
	if len(r.Decls) != 4 {
		t.Fatalf("decls = %d, want 4", len(r.Decls))
	}
	if r.Decls[2].Property != "font" || r.Decls[2].Value != "bold oblique 20px sans-serif" {
		t.Fatalf("font decl = %+v", r.Decls[2])
	}
	if warns := s.Validate(); len(warns) != 0 {
		t.Fatalf("paper example flagged non-CSS1: %v", warns)
	}
}

func TestCompactIsSmall(t *testing.T) {
	s := MustParse(paperBanner)
	compact := s.Compact()
	// The paper says the HTML+CSS replacement is ~150 bytes including the
	// <P CLASS=banner> markup; the style rule itself must be ~120.
	if len(compact) > 130 {
		t.Fatalf("compact form is %d bytes: %q", len(compact), compact)
	}
	// Compact output must re-parse to the same structure.
	s2, err := Parse(compact)
	if err != nil {
		t.Fatalf("compact form does not re-parse: %v", err)
	}
	if s2.String() != s.String() {
		t.Fatalf("compact round trip changed sheet:\n%s\nvs\n%s", s2, s)
	}
}

func TestSelectors(t *testing.T) {
	cases := map[string]string{
		"H1":             "h1",
		"*":              "*",
		".note":          ".note",
		"P.banner.big":   "p.banner.big",
		"#intro":         "#intro",
		"DIV P A:link":   "div p a:link",
		"H1 EM":          "h1 em",
		"A:visited#x.y":  "a#x.y:visited",
		"P:first-letter": "p:first-letter",
		"UL LI .special": "ul li .special",
	}
	for in, want := range cases {
		sheet, err := Parse(in + " { color: red }")
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		sel := sheet.Rules[0].Selectors[0]
		if sel.String() != want {
			t.Errorf("%q: String() = %q, want %q", in, sel.String(), want)
		}
	}
}

func TestSelectorGroups(t *testing.T) {
	s := MustParse("H1, H2, H3 { font-family: helvetica }")
	if len(s.Rules[0].Selectors) != 3 {
		t.Fatalf("selectors = %d, want 3", len(s.Rules[0].Selectors))
	}
}

func TestImportant(t *testing.T) {
	s := MustParse("p { color: red ! important; margin: 1em }")
	if !s.Rules[0].Decls[0].Important {
		t.Fatal("!important not detected")
	}
	if s.Rules[0].Decls[0].Value != "red" {
		t.Fatalf("value = %q, want red", s.Rules[0].Decls[0].Value)
	}
	if s.Rules[0].Decls[1].Important {
		t.Fatal("plain declaration marked important")
	}
}

func TestImports(t *testing.T) {
	s := MustParse(`@import url(base.css); @import "extra.css"; p { color: red }`)
	if len(s.Imports) != 2 || s.Imports[0] != "base.css" || s.Imports[1] != "extra.css" {
		t.Fatalf("imports = %v", s.Imports)
	}
}

func TestUnknownAtRuleSkipped(t *testing.T) {
	s := MustParse(`@media print { p { color: black } } em { color: red }`)
	if len(s.Rules) != 1 || s.Rules[0].Selectors[0].String() != "em" {
		t.Fatalf("rules after skipped at-rule: %+v", s.Rules)
	}
}

func TestComments(t *testing.T) {
	s := MustParse("/* header */ p { /* inner */ color: red } /* trailing")
	if len(s.Rules) != 1 || len(s.Rules[0].Decls) != 1 {
		t.Fatalf("comment handling broke parse: %+v", s.Rules)
	}
}

func TestValidateFlagsNonCSS1(t *testing.T) {
	s := MustParse("p { color: red; position: absolute; z-index: 2 }")
	warns := s.Validate()
	if len(warns) != 2 {
		t.Fatalf("warnings = %v, want 2 (position, z-index are CSS2)", warns)
	}
	for _, w := range warns {
		if !strings.Contains(w, "not CSS1") {
			t.Fatalf("warning text: %q", w)
		}
	}
}

func TestIsCSS1Property(t *testing.T) {
	for _, p := range []string{"font", "COLOR", "margin-left", "list-style", "white-space"} {
		if !IsCSS1Property(p) {
			t.Errorf("%q should be CSS1", p)
		}
	}
	for _, p := range []string{"position", "z-index", "overflow", "grid-template"} {
		if IsCSS1Property(p) {
			t.Errorf("%q should not be CSS1", p)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"p { color: red ",     // unclosed block
		"p color: red }",      // missing brace
		"p { color }",         // no colon
		"{ color: red }",      // empty selector? (whitespace selector)
		"p..x { color: red }", // dangling class marker
		"p { : red }",         // empty property
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := MustParse("H1, .note { color: red; margin: 1em 2em }")
	out := s.String()
	if !strings.Contains(out, "h1, .note {") {
		t.Fatalf("String() = %q", out)
	}
	if !strings.Contains(out, "  color: red;") {
		t.Fatalf("String() = %q", out)
	}
}

// Property: Compact output always re-parses to an equivalent sheet.
func TestPropertyCompactRoundTrip(t *testing.T) {
	props := []string{"color", "background", "font-size", "margin", "padding", "text-align"}
	vals := []string{"red", "#FC0", "12px", "1em 2em", "0.2em 10em", "center"}
	f := func(selSeed, n uint8) bool {
		var src strings.Builder
		sels := []string{"p", "h1.x", "#main", "div p", "ul li.item", "a:link"}
		for i := 0; i <= int(n)%4; i++ {
			src.WriteString(sels[(int(selSeed)+i)%len(sels)])
			src.WriteString(" { ")
			for j := 0; j <= (int(selSeed)+i)%3; j++ {
				k := (i + j) % len(props)
				src.WriteString(props[k] + ": " + vals[k] + "; ")
			}
			src.WriteString("}\n")
		}
		s1, err := Parse(src.String())
		if err != nil {
			return false
		}
		s2, err := Parse(s1.Compact())
		if err != nil {
			return false
		}
		return s1.String() == s2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
