package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
)

// updateGolden rewrites the goldens instead of checking them:
// UPDATE_GOLDEN=1 go test ./... regenerates every golden in the module.
var updateGolden = os.Getenv("UPDATE_GOLDEN") == "1"

// The xplot and time-sequence outputs are the paper's debugging
// instruments; these goldens pin them byte-for-byte for one LAN and one
// PPP run of the canonical pipelined scenario so a tcpsim or netem
// change that silently shifts the trace shows up as a readable diff.
func TestXplotGolden(t *testing.T) {
	for _, env := range []netem.Environment{netem.LAN, netem.PPP} {
		sc := timelineScenario(env)
		site, err := core.DefaultSite()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(sc, site, core.WithCapture())
		if err != nil {
			t.Fatal(err)
		}
		name := strings.ToLower(env.String())

		var xp bytes.Buffer
		if err := res.Capture.WriteXplot(&xp, "server", sc.String()); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("xplot_%s_server.txt", name), xp.Bytes())

		var seq bytes.Buffer
		for _, p := range res.Capture.TimeSequence("server") {
			fmt.Fprintf(&seq, "%.6f %d %d %s dropped=%v\n",
				p.Time.Seconds(), p.SeqLo, p.SeqHi, p.Kind, p.Dropped)
		}
		checkGolden(t, fmt.Sprintf("seq_%s_server.txt", name), seq.Bytes())
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run UPDATE_GOLDEN=1 go test ./internal/core -run XplotGolden to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q\n(rerun with UPDATE_GOLDEN=1 to accept)", name, i+1, g, w)
			}
		}
		t.Fatalf("%s differs in length only", name)
	}
}
