package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFig3Fig4Golden pins the rendered Figure 3 and Figure 4 tables at the
// default options byte for byte. Both are the same on every same-seed run,
// so any change to how the closed loop offers load or paces its clients
// shows here. Regenerate with -update only when a change to the figures is
// intended.
func TestFig3Fig4Golden(t *testing.T) {
	o := DefaultOptions()
	fig3, err := RunFig3(o)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := RunFig4(o)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{
		"fig3.golden": RenderFig3(fig3),
		"fig4.golden": RenderFig4(fig4),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs:\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}
