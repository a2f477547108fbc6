package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Golden snapshots: the suite's executions are fully deterministic, so
// every regenerated paper table is byte-stable. Any change to the kernels,
// the VM, the tracer or the analytical algorithms that perturbs a table
// shows up here first. Regenerate intentionally with:
//
//	go test ./internal/experiments -run Golden -update
func TestGoldenTables(t *testing.T) {
	s := loadSuite(t)
	artifacts := map[string]func() (string, error){
		"table05_data_stats.txt": func() (string, error) {
			tab, err := s.StatsTable(Data)
			if err != nil {
				return "", err
			}
			return tab.Render(), nil
		},
		"table06_instr_stats.txt": func() (string, error) {
			tab, err := s.StatsTable(Instruction)
			if err != nil {
				return "", err
			}
			return tab.Render(), nil
		},
		"table11_crc_data.txt": func() (string, error) {
			or, err := s.Optimal("crc", Data)
			if err != nil {
				return "", err
			}
			return or.Table.Render(), nil
		},
		"table18_ucbqsort_data.txt": func() (string, error) {
			or, err := s.Optimal("ucbqsort", Data)
			if err != nil {
				return "", err
			}
			return or.Table.Render(), nil
		},
		"table30_ucbqsort_instr.txt": func() (string, error) {
			or, err := s.Optimal("ucbqsort", Instruction)
			if err != nil {
				return "", err
			}
			return or.Table.Render(), nil
		},
		"energy_data.txt": func() (string, error) {
			tab, err := s.EnergyTable(Data, 8192, 2000)
			if err != nil {
				return "", err
			}
			return tab.Render(), nil
		},
		"energy_instr.txt": func() (string, error) {
			tab, err := s.EnergyTable(Instruction, 8192, 2000)
			if err != nil {
				return "", err
			}
			return tab.Render(), nil
		},
	}
	for name, gen := range artifacts {
		name, gen := name, gen
		t.Run(name, func(t *testing.T) {
			got, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("table drifted from golden snapshot %s.\ngot:\n%s\nwant:\n%s%s",
					name, got, want, fmt.Sprintf("(regenerate intentionally with -update)"))
			}
		})
	}
}
