// Package css implements a CSS1 parser, validator, and serializer. It is
// the substrate for the paper's content-change experiment: replacing
// decorative images with HTML+CSS (Figure 1: a 682-byte "solutions" GIF
// becomes ~150 bytes of markup and style).
//
// The property set is CSS1 (Lie & Bos, W3C Recommendation, 17 Dec 1996):
// fonts, color and background, text, box model, and classification
// properties.
package css

import (
	"errors"
	"fmt"
	"strings"
)

// ErrSyntax reports unparseable CSS.
var ErrSyntax = errors.New("css: syntax error")

// Decl is one declaration: property, value, and the !important flag.
type Decl struct {
	Property  string
	Value     string
	Important bool
}

// Rule is one rule set: selectors sharing a declaration block.
type Rule struct {
	Selectors []Selector
	Decls     []Decl
}

// Stylesheet is a parsed CSS1 style sheet.
type Stylesheet struct {
	// Imports holds @import URLs in order.
	Imports []string
	Rules   []Rule
}

// Selector is one (possibly contextual) CSS1 selector: a chain of simple
// selectors separated by whitespace, matched as ancestor context.
type Selector struct {
	Simple []SimpleSelector
}

// SimpleSelector is an element with optional id, classes, and
// pseudo-classes/elements (CSS1: :link, :visited, :active, :first-line,
// :first-letter).
type SimpleSelector struct {
	Element string // "" means any
	ID      string
	Classes []string
	Pseudos []string
}

// String renders the selector in canonical form.
func (s Selector) String() string {
	parts := make([]string, len(s.Simple))
	for i, ss := range s.Simple {
		parts[i] = ss.String()
	}
	return strings.Join(parts, " ")
}

// String renders the simple selector.
func (ss SimpleSelector) String() string {
	var b strings.Builder
	b.WriteString(ss.Element)
	if ss.ID != "" {
		b.WriteByte('#')
		b.WriteString(ss.ID)
	}
	for _, c := range ss.Classes {
		b.WriteByte('.')
		b.WriteString(c)
	}
	for _, p := range ss.Pseudos {
		b.WriteByte(':')
		b.WriteString(p)
	}
	if b.Len() == 0 {
		return "*"
	}
	return b.String()
}

// css1Properties is the CSS1 property set.
var css1Properties = map[string]bool{
	// Font properties.
	"font-family": true, "font-style": true, "font-variant": true,
	"font-weight": true, "font-size": true, "font": true,
	// Color and background.
	"color": true, "background-color": true, "background-image": true,
	"background-repeat": true, "background-attachment": true,
	"background-position": true, "background": true,
	// Text.
	"word-spacing": true, "letter-spacing": true, "text-decoration": true,
	"vertical-align": true, "text-transform": true, "text-align": true,
	"text-indent": true, "line-height": true,
	// Box.
	"margin-top": true, "margin-right": true, "margin-bottom": true,
	"margin-left": true, "margin": true,
	"padding-top": true, "padding-right": true, "padding-bottom": true,
	"padding-left": true, "padding": true,
	"border-top-width": true, "border-right-width": true,
	"border-bottom-width": true, "border-left-width": true,
	"border-width": true, "border-color": true, "border-style": true,
	"border-top": true, "border-right": true, "border-bottom": true,
	"border-left": true, "border": true,
	"width": true, "height": true, "float": true, "clear": true,
	// Classification.
	"display": true, "white-space": true,
	"list-style-type": true, "list-style-image": true,
	"list-style-position": true, "list-style": true,
}

// IsCSS1Property reports whether name is in the CSS1 property set.
func IsCSS1Property(name string) bool {
	return css1Properties[strings.ToLower(name)]
}

// Validate returns a warning per declaration whose property is not CSS1.
func (s *Stylesheet) Validate() []string {
	var warnings []string
	for _, r := range s.Rules {
		for _, d := range r.Decls {
			if !IsCSS1Property(d.Property) {
				warnings = append(warnings,
					fmt.Sprintf("property %q in rule %q is not CSS1", d.Property, r.Selectors[0]))
			}
		}
	}
	return warnings
}

// String renders the sheet in a readable multi-line form.
func (s *Stylesheet) String() string {
	var b strings.Builder
	for _, imp := range s.Imports {
		fmt.Fprintf(&b, "@import url(%s);\n", imp)
	}
	for _, r := range s.Rules {
		sels := make([]string, len(r.Selectors))
		for i, sel := range r.Selectors {
			sels[i] = sel.String()
		}
		b.WriteString(strings.Join(sels, ", "))
		b.WriteString(" {\n")
		for _, d := range r.Decls {
			b.WriteString("  ")
			b.WriteString(d.Property)
			b.WriteString(": ")
			b.WriteString(d.Value)
			if d.Important {
				b.WriteString(" ! important")
			}
			b.WriteString(";\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// Compact renders the sheet with minimal bytes (the form used when
// estimating network savings).
func (s *Stylesheet) Compact() string {
	var b strings.Builder
	for _, imp := range s.Imports {
		fmt.Fprintf(&b, "@import url(%s);", imp)
	}
	for _, r := range s.Rules {
		sels := make([]string, len(r.Selectors))
		for i, sel := range r.Selectors {
			sels[i] = sel.String()
		}
		b.WriteString(strings.Join(sels, ","))
		b.WriteByte('{')
		for i, d := range r.Decls {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(d.Property)
			b.WriteByte(':')
			b.WriteString(d.Value)
			if d.Important {
				b.WriteString("!important")
			}
		}
		b.WriteByte('}')
	}
	return b.String()
}
