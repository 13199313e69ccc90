// Compression reproduces the paper's transport-compression experiments:
// the deflate ratio on the Microscape HTML (including the tag-case
// effect), the single-GET modem comparison (deflate vs V.42bis), and the
// GIF→PNG / animated GIF→MNG conversions.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exp"
	_ "repro/internal/experiments"
	"repro/internal/flatez"
	"repro/internal/lzw"
	"repro/internal/report"
)

func main() {
	site, err := core.DefaultSite()
	if err != nil {
		log.Fatal(err)
	}

	html := site.HTML.Body
	deflated := flatez.Compress(html)
	fmt.Printf("Microscape HTML: %d bytes -> deflate %d bytes (ratio %.2f; paper: 42K -> 11K)\n",
		len(html), len(deflated), flatez.Ratio(html, deflated))

	modem := lzw.NewModemCompressor()
	bits := 0
	for off := 0; off < len(html); off += 512 {
		end := off + 512
		if end > len(html) {
			end = len(html)
		}
		bits += modem.CompressedBits(html[off:end])
	}
	fmt.Printf("V.42bis-style modem compression of the same page: ratio %.2f\n",
		float64(bits)/float64(8*len(html)))
	fmt.Println("(\"Deflate compression is more efficient than the data compression")
	fmt.Println(" algorithms used in modems.\")")

	fmt.Println("\nTag case vs deflate (paper: lower ≈ .27, mixed ≈ .35):")
	rows, err := core.TagCaseTable()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-18s %6d -> %6d bytes  ratio %.3f\n", r.Label, r.HTMLBytes, r.Deflated, r.Ratio)
	}

	fmt.Println("\nSingle GET of the page over the 28.8k modem link:")
	data, err := (&exp.Session{Site: site, Runs: 1}).Generate("modem")
	if err != nil {
		log.Fatal(err)
	}
	apache := data.([]*report.Table)[1] // the experiment's second table; the first is Jigsaw's
	for _, r := range apache.Rows {
		fmt.Printf("  %-52s %5.0f packets %7.2fs\n", r[0], apache.Value("Pa", r[0]), apache.Value("Sec", r[0]))
	}

	fmt.Println("\nImage format conversion:")
	rep, err := site.ConvertImages()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  40 static GIFs:  %6d -> %6d bytes as PNG  (paper: 103299 -> 92096)\n",
		rep.StaticGIF, rep.StaticPNG)
	fmt.Printf("  2 animations:    %6d -> %6d bytes as MNG  (paper: 24988 -> 16329)\n",
		rep.AnimGIF, rep.AnimMNG)
	grew := 0
	for _, c := range rep.Static {
		if c.Saved() < 0 {
			grew++
		}
	}
	fmt.Printf("  (%d small images grew under PNG, as the paper observed for the\n", grew)
	fmt.Println("   sub-200-byte, low-bit-depth category)")
}
