package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	fenceRE    = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpanRE = regexp.MustCompile("`([^`]+)`")
	verbCiteRE = regexp.MustCompile(`\bcachedse[ \t]+([a-z][a-z0-9-]*)`)
)

// TestDocsCiteLiveVerbs keeps the living documents from citing a verb the
// CLI no longer has: every `cachedse <verb>` in a fenced block or an
// inline code span must name a verb of the table main dispatches on.
func TestDocsCiteLiveVerbs(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		code := fenceRE.FindAllString(text, -1)
		for _, m := range codeSpanRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(text, ""), -1) {
			code = append(code, m[1])
		}
		cited := 0
		for _, c := range code {
			for _, m := range verbCiteRE.FindAllStringSubmatch(c, -1) {
				cited++
				if _, ok := verbs[m[1]]; !ok && m[1] != "help" {
					t.Errorf("%s cites `cachedse %s`, which is not a cachedse verb", doc, m[1])
				}
			}
		}
		if doc == "README.md" && cited == 0 {
			t.Error("README.md cites no cachedse verb; the extraction is broken")
		}
	}
}
