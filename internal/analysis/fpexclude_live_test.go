package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frontsim/internal/analysis"
)

// TestFpexcludeRejectsUnregisteredConfigField is the live acceptance check
// for the neutrality contract: it copies the real internal/core package,
// sneaks in one fingerprint-excluded field without registering it, and
// asserts fpexclude rejects the package. If this test fails, a developer
// could exclude a results-affecting knob from the cache key and simlint
// would wave it through.
func TestFpexcludeRejectsUnregisteredConfigField(t *testing.T) {
	srcDir := filepath.Join("..", "core")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	// The copy keeps the real directory-suffix layout (.../internal/core)
	// so the analyzer sees the package exactly as it sees the real tree,
	// including the _test.go files the registry's test names resolve in.
	dir := filepath.Join(t.TempDir(), "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Registry entries that name a test in another package
	// (internal/experiment.TestConformance) resolve against the copy's
	// siblings, so link the real ones in beside it.
	siblings, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range siblings {
		if !e.IsDir() || e.Name() == "core" {
			continue
		}
		real, err := filepath.Abs(filepath.Join("..", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(real, filepath.Join(filepath.Dir(dir), e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	const anchor = "FastForward bool `json:\"-\"`"
	patched := false
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "core.go" {
			i := strings.Index(string(data), anchor)
			if i < 0 {
				t.Fatalf("core.go no longer contains the anchor field %q; update the test", anchor)
			}
			eol := i + strings.IndexByte(string(data[i:]), '\n')
			// The blank line keeps the new field out of the preceding
			// line's //lint:allow window: the whole point is that nothing
			// vouches for it.
			ins := "\n\n\t// Sneak is a deliberately unregistered excluded field.\n\tSneak bool `json:\"-\"`"
			data = append(data[:eol:eol], append([]byte(ins), data[eol:]...)...)
			patched = true
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !patched {
		t.Fatal("internal/core has no core.go to patch")
	}

	l, err := analysis.NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "frontsim/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.Fpexclude})
	var hit bool
	for _, d := range diags {
		if strings.Contains(d.Message, "Sneak") && strings.Contains(d.Message, "not registered") {
			hit = true
		} else {
			t.Errorf("unexpected extra diagnostic: %s", d)
		}
	}
	if !hit {
		t.Fatalf("fpexclude accepted an unregistered fingerprint-excluded field; diagnostics: %v", diags)
	}
}
