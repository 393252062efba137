package corbalc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests holds every claim the docs say a test
// carries to a test that exists: each Test name in the "Carried by"
// column of EXPERIMENTS.md's Summary and of DESIGN.md §4 must be a test
// function in the package it names by directory (cohesion.TestX), or in
// some package when unqualified.
func TestDocsCiteExistingTests(t *testing.T) {
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	citation := regexp.MustCompile(`\b(?:[a-z][a-z0-9]*\.)?Test\w+`)
	defined := map[string]bool{} // "TestX" and "pkg.TestX"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
			defined[filepath.Base(filepath.Dir(path))+"."+string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][2]string{{"EXPERIMENTS.md", "## Summary"}, {"DESIGN.md", "## 4. Experiment index"}} {
		src, err := os.ReadFile(doc[0])
		if err != nil {
			t.Fatal(err)
		}
		_, sec, ok := strings.Cut(string(src), "\n"+doc[1]+"\n")
		if !ok {
			t.Fatalf("%s: no %q section", doc[0], doc[1])
		}
		sec, _, _ = strings.Cut(sec, "\n## ")
		cited := 0
		for _, line := range strings.Split(sec, "\n") {
			if cells := strings.Split(line, "|"); len(cells) > 2 {
				for _, name := range citation.FindAllString(cells[len(cells)-2], -1) {
					cited++
					if !defined[name] {
						t.Errorf("%s %s cites %s, which names no test function", doc[0], doc[1], name)
					}
				}
			}
		}
		if cited == 0 {
			t.Errorf("%s %s cites no test", doc[0], doc[1])
		}
	}
}
