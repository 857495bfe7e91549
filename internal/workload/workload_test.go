package workload

import (
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
)

func TestGridsNonEmptyAndWellFormed(t *testing.T) {
	grids := map[string][]core.Config{
		"fig1a": Figure1a(),
		"fig1b": Figure1b(),
		"main":  MainGrid(),
		"fig9":  Figure9(),
		"fig10": Figure10(),
		"fig11": Figure11(),
	}
	for name, g := range grids {
		if len(g) == 0 {
			t.Errorf("%s: empty grid", name)
		}
		for _, cfg := range g {
			if cfg.System.GPU == nil || cfg.Batch <= 0 {
				t.Errorf("%s: malformed config %+v", name, cfg.Label())
			}
		}
	}
}

func TestMainGridSize(t *testing.T) {
	want := len(Systems()) * len(model.Zoo()) * len(EvalBatches()) * 2
	if got := len(MainGrid()); got != want {
		t.Errorf("main grid has %d points, want %d", got, want)
	}
}

func TestFigure9SweepsCaps(t *testing.T) {
	caps := Figure9Caps()
	grid := Figure9()
	if len(grid) != len(caps) {
		t.Fatalf("fig9 grid %d != caps %d", len(grid), len(caps))
	}
	for i, cfg := range grid {
		if cfg.Caps.PowerW != caps[i] {
			t.Errorf("point %d cap %g, want %g", i, cfg.Caps.PowerW, caps[i])
		}
	}
}

func TestFigure10PairsFormats(t *testing.T) {
	for i := 0; i < len(Figure10()); i += 2 {
		pair := Figure10()[i : i+2]
		if pair[0].Format != precision.FP32 || pair[1].Format != precision.FP16 {
			t.Errorf("pair %d formats: %v, %v", i/2, pair[0].Format, pair[1].Format)
		}
		if pair[0].MatrixUnits || !pair[1].MatrixUnits {
			t.Errorf("pair %d datapaths wrong", i/2)
		}
	}
}

func TestFigure11TogglesMatrixUnits(t *testing.T) {
	for i := 0; i < len(Figure11()); i += 2 {
		pair := Figure11()[i : i+2]
		if pair[0].Format != precision.FP32 || pair[1].Format != precision.FP32 {
			t.Errorf("pair %d must both be FP32", i/2)
		}
		if pair[0].MatrixUnits == pair[1].MatrixUnits {
			t.Errorf("pair %d must toggle matrix units", i/2)
		}
	}
}

func TestFigure7Config(t *testing.T) {
	cfg := Figure7()
	if cfg.System.GPU.Name != "MI250" || cfg.Model.Name != "LLaMA2 13B" {
		t.Errorf("fig7 config = %s", cfg.Label())
	}
	if cfg.TraceInterval <= 0 {
		t.Error("fig7 must record a trace")
	}
}
