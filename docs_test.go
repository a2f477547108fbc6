package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the living documents. CHANGES.md and ROADMAP.md are
// history and may name artifacts that no longer exist.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	benchIdentRE = regexp.MustCompile(`Benchmark[A-Z]\w*`)
	benchFuncRE  = regexp.MustCompile(`(?m)^func (Benchmark[A-Z]\w*)\(`)
	fenceRE      = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpanRE   = regexp.MustCompile("`([^`]+)`")
	repoPathRE   = regexp.MustCompile(`^(cmd|internal|pkg|scripts|examples|bench)/\S+$`)
	rootFileRE   = regexp.MustCompile(`^[A-Za-z_]+\.(json|md|txt)$`)
	citeSuffixRE = regexp.MustCompile(`(:\d+(-\d+)?|#[\w-]+)$`)
)

// TestDocsCiteLiveArtifacts keeps the docs from citing what is gone:
// every Benchmark identifier they name must be a benchmark function in
// some _test.go of the repository (the bench module included), and every
// inline code span that is a repository path or a root-level
// .json/.md/.txt file must exist on disk.
func TestDocsCiteLiveArtifacts(t *testing.T) {
	benchmarks := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFuncRE.FindAllStringSubmatch(string(src), -1) {
			benchmarks[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, name := range benchIdentRE.FindAllString(text, -1) {
			if !benchmarks[name] {
				t.Errorf("%s cites %s, but no _test.go defines it", doc, name)
			}
		}
		for _, m := range codeSpanRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(text, ""), -1) {
			span := m[1]
			if !repoPathRE.MatchString(span) && !rootFileRE.MatchString(span) {
				continue
			}
			path := citeSuffixRE.ReplaceAllString(span, "")
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s cites `%s`, which does not exist", doc, span)
			}
		}
	}
}
