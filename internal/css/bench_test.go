package css

import (
	"strings"
	"testing"
)

var benchSheet = strings.Repeat(
	"p.banner { color: white; background: #FC0; font: bold oblique 20px sans-serif }\n"+
		"div.nav ul li a:link { color: blue; text-decoration: none }\n"+
		"#masthead h1 { font-size: 24px; margin: 0 }\n", 60)

func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchSheet)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSheet); err != nil {
			b.Fatal(err)
		}
	}
}
