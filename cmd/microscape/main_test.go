package main

import (
	"bytes"
	"fmt"
	"image/png"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The written site is the synthesized one: 43 objects, and with -convert
// one PNG per static GIF and one MNG per animation, each file a valid
// image whose sizes add up to the totals the command prints.
func TestRunWritesConvertedSite(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, dir, 1, "lower", true, true); err != nil {
		t.Fatal(err)
	}

	objects := 0
	for _, pattern := range []string{"index.html", "images/*"} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		objects += len(m)
	}
	if objects != 43 {
		t.Errorf("%d objects written, want 43", objects)
	}

	var staticGIF, staticPNG, animGIF, animMNG int
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "converted:") {
			if _, err := fmt.Sscanf(line, "converted: static GIF %d -> PNG %d bytes; animations %d -> MNG %d bytes",
				&staticGIF, &staticPNG, &animGIF, &animMNG); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
	}
	if staticPNG == 0 || animMNG == 0 {
		t.Fatalf("no conversion totals in the output:\n%s", out.String())
	}

	sizes := map[string]int{}
	counts := map[string]int{}
	entries, err := os.ReadDir(filepath.Join(dir, "converted"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "converted", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ext := filepath.Ext(e.Name())
		sizes[ext] += len(data)
		counts[ext]++
		if ext == ".png" {
			if _, err := png.Decode(bytes.NewReader(data)); err != nil {
				t.Errorf("%s does not decode: %v", e.Name(), err)
			}
		}
	}
	if counts[".png"] != 40 || counts[".mng"] != 2 || len(entries) != 42 {
		t.Errorf("converted files: %v, want 40 .png and 2 .mng", counts)
	}
	if sizes[".png"] != staticPNG || sizes[".mng"] != animMNG {
		t.Errorf("PNG files total %d bytes and MNG files %d; the command printed %d and %d",
			sizes[".png"], sizes[".mng"], staticPNG, animMNG)
	}
}
