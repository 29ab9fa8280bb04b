package experiments

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/harness"
)

func figureNamed(t *testing.T, name string) Figure {
	t.Helper()
	for _, fig := range Figures() {
		if slices.Contains(fig.Names, name) {
			return fig
		}
	}
	t.Fatalf("no figure named %q", name)
	return Figure{}
}

// TestFigureTableNamesEveryExperiment pins the -exp vocabulary: every fleet
// figure keeps its name, fig1 is fig10's cell set, and the two paper-scale
// grids stay out of "all".
func TestFigureTableNamesEveryExperiment(t *testing.T) {
	for _, name := range []string{"fig1", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "fig10", "table2", "bootstrap", "scenarios"} {
		fig := figureNamed(t, name)
		if optIn := name == "bootstrap" || name == "scenarios"; fig.OptIn != optIn {
			t.Errorf("%s: OptIn = %v, want %v", name, fig.OptIn, optIn)
		}
		if len(fig.Kinds) == 0 || len(fig.Systems) == 0 || len(fig.Sizes) == 0 || len(fig.cols) == 0 {
			t.Errorf("%s: incomplete grid %+v", name, fig.ScenarioOptions)
		}
	}
	if got := figureNamed(t, "fig1").Names[0]; got != "fig10" {
		t.Errorf("fig1 selects %q, want fig10's cells", got)
	}
}

// TestGroupedRowIsMedianAndQuartiles: the grouped row of a known three-run
// input is its median and quartiles, counts yes/no columns over the formed
// runs only, and prints bare values for a single run.
func TestGroupedRowIsMedianAndQuartiles(t *testing.T) {
	runs := []ScenarioCell{
		{Fault: harness.FaultCrash, System: harness.SystemRapid, N: 40, FormationOK: true, RemovalExpected: true, Detected: true, DetectS: 12.5, UniqueSizes: 2},
		{Fault: harness.FaultCrash, System: harness.SystemRapid, N: 40, FormationOK: true, RemovalExpected: true, Detected: false, DetectS: 30, UniqueSizes: 3},
		{Fault: harness.FaultCrash, System: harness.SystemRapid, N: 40, FormationOK: true, RemovalExpected: true, Detected: true, DetectS: 10, UniqueSizes: 2},
		{Fault: harness.FaultCrash, System: harness.SystemRapid, N: 40, FormationOK: false},
	}
	row, text := group(runs, faultCols)
	if row.Runs != 4 || row.Formed != 3 {
		t.Fatalf("runs/formed = %d/%d, want 4/3", row.Runs, row.Formed)
	}
	if got, want := row.Spread["detect(s)"], (Spread{Median: 12.5, Q1: 10, Q3: 30}); got != want {
		t.Errorf("detect(s) spread = %+v, want %+v", got, want)
	}
	if got, want := row.Spread["sizes"], (Spread{Median: 2, Q1: 2, Q3: 3}); got != want {
		t.Errorf("sizes spread = %+v, want %+v", got, want)
	}
	if row.Yes["detect"] != 2 {
		t.Errorf("detect yes-count = %d, want 2", row.Yes["detect"])
	}
	if want := []string{"crash", "rapid", "40", "3/4", "2/3", "12.5 [10.0 30.0]"}; !slices.Equal(text[:6], want) {
		t.Errorf("printed row = %q, want prefix %q", text, want)
	}

	_, single := group(runs[:1], faultCols)
	if want := []string{"crash", "rapid", "40", "true", "true", "12.5"}; !slices.Equal(single[:6], want) {
		t.Errorf("single-run row = %q, want prefix %q (no brackets)", single, want)
	}
	wan := ScenarioCell{Fault: harness.FaultWAN, System: harness.SystemRapid, N: 40, FormationOK: true, Agreed: true}
	if row, text := group([]ScenarioCell{wan}, faultCols); text[4] != "-" || text[5] != "-" || len(row.Yes) != 1 {
		t.Errorf("a fault with nothing to detect prints %q and groups %+v, want dashes and no detect entry", text, row)
	}
}

// TestEveryFigureAtToySize runs the whole figure table at toy sizes with two
// seeds and asserts what the figure benchmarks used to: all four systems
// bootstrap, Rapid removes the victim under flap and egress-loss-80, Table 2
// counts bytes — and that the result is its own file format.
func TestEveryFigureAtToySize(t *testing.T) {
	if testing.Short() {
		t.Skip("the toy-size figure sweep runs ~70 fleets; the plain lane runs it")
	}
	cfg := Config{TimeScale: 100}
	seeds := []int64{7, 42}
	var results []FigureResult
	for _, fig := range Figures() {
		grid := fig.ScenarioOptions
		fig.ScenarioOptions = scenarioTestOptions()
		// Rapid and Memberlist detect in ~0.1 s of wall time at this scale; a
		// toy-N noise eviction that never detects should not cost 30 s.
		fig.DetectTimeout = 10 * time.Second
		fig.Kinds, fig.VictimPercent, fig.AccountBandwidth = grid.Kinds, grid.VictimPercent, grid.AccountBandwidth
		fig.Systems, fig.Sizes = []harness.System{harness.SystemRapid}, []int{20}
		switch fig.Names[0] {
		case "fig5":
			fig.Systems, fig.Sizes = grid.Systems, []int{16, 24}
		case "fig9":
			fig.Sizes = []int{60} // the flip-flop needs N >> K
		case "table2":
			fig.Systems = []harness.System{harness.SystemMemberlist, harness.SystemRapid}
		}
		res, err := RunFigure(cfg, fig, seeds)
		if err != nil {
			t.Fatalf("%s: %v", fig.Names[0], err)
		}
		if want := len(fig.Sizes) * len(fig.Kinds) * len(fig.Systems); len(res.Rows) != want || len(res.Cells) != want*len(seeds) {
			t.Fatalf("%s: %d rows and %d cells, want %d and %d", res.Name, len(res.Rows), len(res.Cells), want, want*len(seeds))
		}
		for _, c := range res.Cells {
			if !c.FormationOK {
				t.Errorf("%s: %s/%s N=%d seed %d did not bootstrap", res.Name, c.Fault, c.System, c.N, c.Seed)
				continue
			}
			switch res.Name {
			case "fig9", "fig10":
				if !c.Detected {
					t.Errorf("%s: rapid did not remove the victim under %s (seed %d)", res.Name, c.Fault, c.Seed)
				}
			case "table2":
				if c.Received.MeanKBps <= 0 || c.Sent.MeanKBps <= 0 {
					t.Errorf("table2: %s counted no bytes: %+v / %+v", c.System, c.Received, c.Sent)
				}
			}
		}
		for _, row := range res.Rows {
			if row.Runs != len(seeds) {
				t.Errorf("%s: grouped row %s/%s has %d runs, want %d", res.Name, row.Fault, row.System, row.Runs, len(seeds))
			}
		}
		results = append(results, res)
	}

	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	var back []FigureResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, back) {
		t.Error("the figure results do not survive a JSON round trip")
	}
}
