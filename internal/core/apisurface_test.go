package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestAPISurfaceOneExploreEntryPoint parses the package source and
// enforces the finalized v2 contract: exactly one exported Explore entry
// point exists (core.Explore) and no Deprecated: Explore shims remain —
// the PR-5 compatibility wrappers were deleted once every caller had
// migrated to Explore(ctx, src, opts). This is the apidiff gate: adding a
// second entry point, or reintroducing a shim, fails here before review.
func TestAPISurfaceOneExploreEntryPoint(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["core"]
	if !ok {
		t.Fatalf("package core not found in %v", pkgs)
	}

	var live, deprecated []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if !strings.HasPrefix(name, "Explore") {
				continue
			}
			if isDeprecated(fn.Doc) {
				deprecated = append(deprecated, name)
			} else {
				live = append(live, name)
			}
		}
	}
	sort.Strings(live)
	sort.Strings(deprecated)

	if len(live) != 1 || live[0] != "Explore" {
		t.Fatalf("non-deprecated Explore entry points = %v, want exactly [Explore]", live)
	}
	if len(deprecated) != 0 {
		t.Fatalf("Deprecated: Explore shims = %v, want none (the v2 surface has a single entry point; new options go on core.Options, not on new wrappers)", deprecated)
	}
}

// TestAPISurfaceLRUOnlyOptions locks Explore to the one question it
// answers — the exact (or sampled) LRU miss profile. core.Options carries
// exactly the depth cap and the two sampling knobs; replacement policies, associativity caps and engine selection
// belong to the design-space evaluator (dse.ExploreSpace), and no
// exported top-level identifier naming an Engine may return.
func TestAPISurfaceLRUOnlyOptions(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fields, engines []string
	exported := func(id *ast.Ident) {
		if id.IsExported() && strings.Contains(id.Name, "Engine") {
			engines = append(engines, id.Name)
		}
	}
	for _, file := range pkgs["core"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					exported(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						exported(sp.Name)
						if st, ok := sp.Type.(*ast.StructType); ok && sp.Name.Name == "Options" {
							for _, f := range st.Fields.List {
								for _, name := range f.Names {
									fields = append(fields, name.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							exported(name)
						}
					}
				}
			}
		}
	}
	want := []string{"MaxDepth", "SampleRate", "SampleSeed"}
	if strings.Join(fields, ",") != strings.Join(want, ",") {
		t.Errorf("core.Options fields = %v, want exactly %v", fields, want)
	}
	if len(engines) != 0 {
		t.Errorf("exported identifiers %v reintroduced; the postlude formulation is not an option", engines)
	}
}

func isDeprecated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, "Deprecated:") {
			return true
		}
	}
	return false
}
