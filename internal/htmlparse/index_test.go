package htmlparse_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/htmlparse"
	"repro/internal/webgen"
)

// armedDiffer feeds the same chunks to an extractor armed with an index
// and to an unarmed one, and demands the same links, nil-ness included,
// from every Feed call. The index is never trusted: while the armed
// extractor replays it, agreement call by call is the property that the
// links reported after n bytes of the page, however they were cut, are
// the indexed ones ending at or before n.
type armedDiffer struct {
	armed, plain htmlparse.LinkExtractor
}

func newArmedDiffer(x *htmlparse.PageIndex) *armedDiffer {
	d := new(armedDiffer)
	d.armed.Arm(x)
	return d
}

func (d *armedDiffer) feed(chunk []byte) error {
	got, want := d.armed.Feed(chunk), d.plain.Feed(chunk)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("armed %v, scanned %v", got, want)
	}
	return nil
}

// feedCuts feeds body cut after every offset in cuts (ascending).
func (d *armedDiffer) feedCuts(body []byte, cuts []int) error {
	prev := 0
	for _, c := range append(cuts, len(body)) {
		c = max(prev, min(c, len(body)))
		if err := d.feed(body[prev:c]); err != nil {
			return fmt.Errorf("chunk [%d:%d]: %w", prev, c, err)
		}
		prev = c
	}
	return nil
}

// checkArmed requires the armed extractor to have replayed all of body
// if body is a prefix of page, and to have fallen back to scanning if it
// is not.
func (d *armedDiffer) checkArmed(page, body []byte) error {
	armed, verified := d.armed.Replaying()
	replayed := armed && verified == len(body)
	if prefix := bytes.HasPrefix(page, body); replayed != prefix {
		return fmt.Errorf("replayed all %d bytes: %v, body a prefix of the page: %v", len(body), replayed, prefix)
	}
	return nil
}

// mssCuts cuts n bytes into 1460-byte segments.
func mssCuts(n int) []int {
	var cuts []int
	for c := 1460; c < n; c += 1460 {
		cuts = append(cuts, c)
	}
	return cuts
}

// randomCuts cuts n bytes into pieces of 0 to 2999 bytes.
func randomCuts(rng *rand.Rand, n int) []int {
	var cuts []int
	for c := rng.Intn(3000); c < n; c += rng.Intn(3000) {
		cuts = append(cuts, c)
	}
	return cuts
}

func TestIndexedFeedMatchesScan(t *testing.T) {
	for name, page := range oraclePages(t) {
		rng := rand.New(rand.NewSource(int64(len(page))))
		x := htmlparse.IndexPage(page)
		var whole htmlparse.LinkExtractor
		var inline []string
		for _, l := range whole.Feed(page) {
			if l.Kind.Inline() {
				inline = append(inline, l.URL)
			}
		}
		if len(inline) == 0 || !slices.Equal(x.InlineURLs(), inline) {
			t.Fatalf("%s: indexed inline URLs %v, want %v", name, x.InlineURLs(), inline)
		}

		// The page as sent, in segments and in random pieces: replayed
		// to the end.
		chunkings := [][]int{mssCuts(len(page))}
		for i := 0; i < 20; i++ {
			chunkings = append(chunkings, randomCuts(rng, len(page)))
		}
		for _, cuts := range chunkings {
			d := newArmedDiffer(x)
			if err := d.feedCuts(page, cuts); err != nil {
				t.Fatalf("%s, cuts %v: %v", name, cuts, err)
			}
			if err := d.checkArmed(page, page); err != nil {
				t.Fatalf("%s, cuts %v: %v", name, cuts, err)
			}
		}

		// Every truncation: the body stops after n bytes, sent in
		// segments. The two extractors are advanced a whole segment at a
		// time and copied to feed each shorter last segment.
		d := newArmedDiffer(x)
		for a := 0; a < len(page); a += 1460 {
			for n := a; n <= min(a+1460, len(page)); n++ {
				armed, plain := d.armed, d.plain.Clone()
				got, want := armed.Feed(page[a:n]), plain.Feed(page[a:n])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s truncated at %d: last segment armed %v, scanned %v", name, n, got, want)
				}
			}
			if err := d.feed(page[a:min(a+1460, len(page))]); err != nil {
				t.Fatalf("%s, segment at %d: %v", name, a, err)
			}
		}

		// Single-byte flips, insertions and deletions: at random offsets,
		// inside link tags, on a link tag's '>' and just before it.
		var at []int
		for i := 0; i < 32; i++ {
			at = append(at, rng.Intn(len(page)))
		}
		for i := 0; i < 8; i++ {
			end := x.Ends()[rng.Intn(len(x.Ends()))]
			at = append(at, end-1, end-2, end-1-rng.Intn(10))
		}
		for _, p := range at {
			edits := []struct {
				name string
				body []byte
			}{
				{"flip", slices.Concat(page[:p], []byte{page[p] ^ byte(1+rng.Intn(255))}, page[p+1:])},
				{"quote", slices.Concat(page[:p], []byte{'"'}, page[p+1:])},
				{"insert", slices.Concat(page[:p], []byte{"<>\"' x="[rng.Intn(7)]}, page[p:])},
				{"delete", slices.Concat(page[:p], page[p+1:])},
			}
			for _, ed := range edits {
				edit, body := ed.name, ed.body
				if bytes.Equal(body, page) {
					continue
				}
				for _, cuts := range [][]int{mssCuts(len(body)), randomCuts(rng, len(body))} {
					d := newArmedDiffer(x)
					if err := d.feedCuts(body, cuts); err != nil {
						t.Fatalf("%s, %s at %d, cuts %v: %v", name, edit, p, cuts, err)
					}
					if err := d.checkArmed(page, body); err != nil {
						t.Fatalf("%s, %s at %d: %v", name, edit, p, err)
					}
				}
			}
		}

		// A body that continues past the page's end, with the extra bytes
		// in the page's last segment and in a chunk of their own.
		for _, tail := range []string{"x", `<img src="/images/after.gif">`, string(page)} {
			body := slices.Concat(page, []byte(tail))
			for _, cuts := range [][]int{mssCuts(len(body)), {len(page)}, {len(page) - 3}} {
				d := newArmedDiffer(x)
				if err := d.feedCuts(body, cuts); err != nil {
					t.Fatalf("%s + %.20q, cuts %v: %v", name, tail, cuts, err)
				}
				if err := d.checkArmed(page, body); err != nil {
					t.Fatalf("%s + %.20q: %v", name, tail, err)
				}
			}
		}
	}
}

// A fuzz document indexed against itself, then fed intact or edited:
// op 0 leaves it, 1 overwrites the byte at at with val, 2 inserts val
// before it (at the end: appends), 3 truncates there.
func FuzzIndexedFeedMatchesScan(f *testing.F) {
	for i, s := range splitSeeds {
		f.Add([]byte(s), []byte{}, uint16(0), byte(0), byte(0))
		f.Add([]byte(s), []byte{3, 0, 7, 2}, uint16(i*7), byte(i%4), byte('>'))
	}
	f.Fuzz(func(t *testing.T, doc, cuts []byte, at uint16, op, val byte) {
		body := slices.Clone(doc)
		p := int(at) % (len(doc) + 1)
		switch op % 4 {
		case 1:
			if p < len(body) {
				body[p] = val
			}
		case 2:
			body = slices.Insert(body, p, val)
		case 3:
			body = body[:p]
		}
		var offs []int
		off := 0
		for _, n := range cuts {
			off += int(n)
			offs = append(offs, off)
		}
		d := newArmedDiffer(htmlparse.IndexPage(doc))
		if err := d.feedCuts(body, offs); err != nil {
			t.Fatal(err)
		}
		if err := d.checkArmed(doc, body); err != nil {
			t.Fatal(err)
		}
	})
}

// The verified path costs nothing: replaying the page segment by segment
// allocates nothing, where scanning it allocates a string per link.
func TestIndexedFeedAllocs(t *testing.T) {
	page := webgen.MicroscapeHTML(webgen.Options{})
	x := htmlparse.IndexPage(page)
	var e htmlparse.LinkExtractor
	links := 0
	if n := testing.AllocsPerRun(20, func() {
		e.Arm(x)
		links = 0
		for off := 0; off < len(page); off += 1460 {
			links += len(e.Feed(page[off:min(off+1460, len(page))]))
		}
	}); n != 0 {
		t.Errorf("replaying the page allocates %v times, want 0", n)
	}
	if armed, _ := e.Replaying(); links != len(x.Ends()) || !armed {
		t.Errorf("replay returned %d of %d links (still armed: %v)", links, len(x.Ends()), armed)
	}
}
