// Command microscape synthesizes the paper's test web site and writes it
// to a directory: the ~42 KB HTML page, the 42 GIF images with the
// paper's size distribution, plus (optionally) the converted PNG/MNG
// images and the CSSified page variant.
//
// Usage:
//
//	microscape -out ./site            # HTML + GIFs
//	microscape -out ./site -convert   # also PNG/MNG conversions
//	microscape -out ./site -cssified  # also the CSS-replacement variant
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/webgen"
)

func main() {
	out := flag.String("out", "microscape-site", "output directory")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	tagCase := flag.String("tagcase", "lower", "HTML tag case: lower, mixed, upper")
	convert := flag.Bool("convert", false, "also write PNG/MNG conversions")
	cssified := flag.Bool("cssified", false, "also write the CSSified variant")
	flag.Parse()

	if err := run(os.Stdout, *out, *seed, *tagCase, *convert, *cssified); err != nil {
		fmt.Fprintln(os.Stderr, "microscape:", err)
		os.Exit(1)
	}
}

// run writes the site to the directory out and reports on w.
func run(w io.Writer, out string, seed uint64, tagCase string, convert, cssified bool) error {
	var tc webgen.TagCase
	switch tagCase {
	case "lower":
		tc = webgen.TagsLower
	case "mixed":
		tc = webgen.TagsMixed
	case "upper":
		tc = webgen.TagsUpper
	default:
		return fmt.Errorf("unknown tag case %q", tagCase)
	}
	site, err := webgen.Microscape(webgen.Options{Seed: seed, TagCase: tc})
	if err != nil {
		return err
	}
	if err := writeSite(site, out); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d objects (%d bytes) to %s\n", site.ObjectCount(), site.TotalBytes(), out)

	if convert {
		dir := filepath.Join(out, "converted")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		rep, err := site.ConvertImages()
		if err != nil {
			return err
		}
		for _, set := range []struct {
			convs []webgen.Conversion
			ext   string
		}{{rep.Static, ".png"}, {rep.Animations, ".mng"}} {
			for _, c := range set.convs {
				name := strings.TrimSuffix(c.Name, ".gif") + set.ext
				if err := os.WriteFile(filepath.Join(dir, name), c.Data, 0o644); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(w, "converted: static GIF %d -> PNG %d bytes; animations %d -> MNG %d bytes\n",
			rep.StaticGIF, rep.StaticPNG, rep.AnimGIF, rep.AnimMNG)
	}

	if cssified {
		cs, err := site.CSSified(webgen.Options{Seed: seed, TagCase: tc})
		if err != nil {
			return err
		}
		dir := filepath.Join(out, "cssified")
		if err := writeSite(cs, dir); err != nil {
			return err
		}
		fmt.Fprintf(w, "cssified variant: %d objects (%d bytes) in %s\n", cs.ObjectCount(), cs.TotalBytes(), dir)
	}
	return nil
}

func writeSite(site *webgen.Site, dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "images"), 0o755); err != nil {
		return err
	}
	for _, path := range site.Paths() {
		obj, _ := site.Object(path)
		name := path
		if name == "/" {
			name = "/index.html"
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(strings.TrimPrefix(name, "/"))), obj.Body, 0o644); err != nil {
			return err
		}
	}
	return nil
}
