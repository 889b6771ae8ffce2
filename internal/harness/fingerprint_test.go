package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numacs/internal/metrics"
)

// fingerprintDir holds the committed counter fingerprints of fixed-seed
// runs (metrics.Fingerprint), and scoreboardDir every registered
// experiment's rendered quick-scale report. A drift fails the test that owns
// the file; regenerate deliberately with
//
//	NUMACS_WRITE_FINGERPRINTS=1 go test ./internal/harness -run <test>
//
// and review the diff like any other behavior change.
var (
	fingerprintDir = filepath.Join("..", "..", "testdata", "fingerprints")
	scoreboardDir  = filepath.Join("..", "..", "testdata", "scoreboard")
)

// assertSameRun fails the test when two runs' counters differ in any field.
func assertSameRun(t *testing.T, want, got *metrics.Counters) {
	t.Helper()
	if d := diffLines(metrics.Fingerprint(want), metrics.Fingerprint(got)); d != "" {
		t.Fatalf("runs differ:\n%s", d)
	}
}

// assertFingerprintFile fails the test when a run's counters differ from the
// committed fingerprint testdata/fingerprints/<name>.txt.
func assertFingerprintFile(t *testing.T, name string, got *metrics.Counters) {
	t.Helper()
	assertGoldenFile(t, filepath.Join(fingerprintDir, name+".txt"), metrics.Fingerprint(got))
}

// assertGoldenFile fails the test when got differs from the committed text
// file at path; NUMACS_WRITE_FINGERPRINTS=1 rewrites the file instead.
func assertGoldenFile(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("NUMACS_WRITE_FINGERPRINTS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s: %v", path, err)
	}
	if d := diffLines(string(want), got); d != "" {
		t.Fatalf("output drifted from %s:\n%s", path, d)
	}
}

// diffLines returns "" for equal texts, else their first differing
// lines (at most 20), one want/got pair each.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i, n := 0, 0; (i < len(w) || i < len(g)) && n < 20; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
			n++
		}
	}
	return b.String()
}
