package experiments

import (
	"bytes"
	"testing"

	"repro/internal/exp"
)

// TestEngineDifferential is the determinism contract of the event
// engine under the worker pool: every registered experiment must render
// byte-identical tables — and emit a byte-identical metrics CSV — at
// serial and wide parallelism. The CSV includes the per-run sim_events
// count, so the pool widths must agree not only on output bytes but on
// the exact number of events fired. The name dates from a second
// engine being compared too; the tier-1 floor lists the test and its
// subtests by it.
func TestEngineDifferential(t *testing.T) {
	for _, name := range exp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var tables, csvs [2][]byte
			for i, parallel := range []int{1, 8} {
				s := session(t, parallel)
				s.Runs = 1
				tables[i] = render(t, s, name)
				var csv bytes.Buffer
				if err := s.Collector.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				csvs[i] = csv.Bytes()
			}
			if !bytes.Equal(tables[0], tables[1]) {
				t.Errorf("rendered table differs between -parallel 1 and 8:\n%s\nvs\n%s", tables[0], tables[1])
			}
			if !bytes.Equal(csvs[0], csvs[1]) {
				t.Error("metrics CSV differs between -parallel 1 and 8")
			}
		})
	}
}
