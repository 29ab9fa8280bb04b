package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// validateFigures checks a -json file written by `rapid-bench -exp all`:
// every figure of the table that "all" runs is there, every cell says whether
// its fleet formed, and every grouped row covers one run per seed.
func validateFigures(data []byte) error {
	var file struct {
		Seeds   []int64 `json:"seeds"`
		Figures []struct {
			Name  string                       `json:"name"`
			Cells []map[string]json.RawMessage `json:"cells"`
			Rows  []experiments.Row            `json:"rows"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return err
	}
	if len(file.Seeds) == 0 {
		return fmt.Errorf("no seeds recorded")
	}
	present := map[string]bool{}
	for _, fig := range file.Figures {
		present[fig.Name] = true
		if len(fig.Cells) == 0 || len(fig.Cells) != len(fig.Rows)*len(file.Seeds) {
			return fmt.Errorf("%s: %d cells for %d rows and %d seeds", fig.Name, len(fig.Cells), len(fig.Rows), len(file.Seeds))
		}
		for i, cell := range fig.Cells {
			if _, ok := cell["formation_ok"]; !ok {
				return fmt.Errorf("%s: cell %d has no formation_ok", fig.Name, i)
			}
		}
		for _, row := range fig.Rows {
			if row.Runs != len(file.Seeds) {
				return fmt.Errorf("%s: row %s/%s N=%d groups %d runs, want one per seed (%d)",
					fig.Name, row.Fault, row.System, row.N, row.Runs, len(file.Seeds))
			}
		}
	}
	for _, fig := range experiments.Figures() {
		if !fig.OptIn && !present[fig.Names[0]] {
			return fmt.Errorf("figure %s is missing", fig.Names[0])
		}
	}
	return nil
}

// TestFiguresFileIsValid is the second half of CI's `figures smoke` step: it
// re-reads the file `rapid-bench -exp all -json $FIGURES_JSON` wrote.
func TestFiguresFileIsValid(t *testing.T) {
	path := os.Getenv("FIGURES_JSON")
	if path == "" {
		t.Skip("set FIGURES_JSON to a file written by rapid-bench -exp all -json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateFigures(data); err != nil {
		t.Fatal(err)
	}
}

// TestValidateFiguresRejectsBrokenFiles keeps the smoke honest: a complete
// file passes, and each defect the smoke exists to catch fails.
func TestValidateFiguresRejectsBrokenFiles(t *testing.T) {
	good := figuresFile{TimeScale: 50, Seeds: []int64{1, 2}}
	for _, fig := range experiments.Figures() {
		if !fig.OptIn {
			good.Figures = append(good.Figures, experiments.FigureResult{
				Name:  fig.Names[0],
				Cells: make([]experiments.ScenarioCell, 2),
				Rows:  []experiments.Row{{Runs: 2}},
			})
		}
	}
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateFigures(data); err != nil {
		t.Fatalf("a complete file was rejected: %v", err)
	}
	for name, broken := range map[string]string{
		"a missing figure":            strings.Replace(string(data), `"name":"table2"`, `"name":"table3"`, 1),
		"a cell without formation_ok": strings.Replace(string(data), `"formation_ok"`, `"formed"`, 1),
		"a row short of runs":         strings.Replace(string(data), `"runs":2`, `"runs":1`, 1),
	} {
		if validateFigures([]byte(broken)) == nil {
			t.Errorf("%s was accepted", name)
		}
	}
}
