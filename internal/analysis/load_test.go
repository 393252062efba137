package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corbalc/internal/analysis"
)

func TestLoadNonexistentPattern(t *testing.T) {
	_, err := analysis.Load("./no/such/dir/...")
	if err == nil {
		t.Fatal("Load of a nonexistent recursive pattern must error, not panic")
	}
	if _, err := analysis.Load("./no/such/dir"); err == nil {
		t.Fatal("Load of a nonexistent directory must error, not panic")
	}
}

func TestLoadOutsideModule(t *testing.T) {
	_, err := analysis.Load(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "outside module") {
		t.Fatalf("Load outside the module must say so, got %v", err)
	}
}

func TestLoadDirSyntaxError(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nfunc {\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := analysis.NewLoader().LoadDir(dir, "broken")
	if err == nil {
		t.Fatal("LoadDir of unparsable source must return the parse error, not panic")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("parse error should name the file: %v", err)
	}
}

func TestLoadDirRecordsTypeErrors(t *testing.T) {
	dir := t.TempDir()
	src := "package bad\n\nvar X NoSuchType\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader().LoadDir(dir, "bad")
	if err != nil {
		t.Fatalf("type errors must be recorded, not returned: %v", err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("undefined type should be captured in TypeErrors")
	}
	if got := pkg.TypeErrors[0].Error(); !strings.Contains(got, "NoSuchType") {
		t.Errorf("type error should name the missing symbol: %s", got)
	}
}

func TestLoadDirEmptyDirectory(t *testing.T) {
	if _, err := analysis.NewLoader().LoadDir(t.TempDir(), "empty"); err == nil {
		t.Fatal("LoadDir of a directory with no Go files must error")
	}
}

// A directory with its own go.mod is another module: "./..." stops at
// it, as it does for the go tool (benchmark/ is one).
func TestLoadSkipsNestedModules(t *testing.T) {
	pkgs, err := analysis.Load("./testdata/nested/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].PkgPath, "/nested/a") {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.PkgPath)
		}
		t.Fatalf("loaded %v, want only .../nested/a", got)
	}
}
