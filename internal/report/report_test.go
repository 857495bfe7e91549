package report

import (
	"context"
	"strings"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/hw"
	"overlapsim/internal/model"
	"overlapsim/internal/precision"
	"overlapsim/internal/sweep"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	err := Table(&b, []string{"A", "Long Header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], "x") || !strings.Contains(lines[3], "longer-cell") {
		t.Error("rows missing")
	}
}

func TestCSVQuoting(t *testing.T) {
	var b strings.Builder
	err := CSV(&b, []string{"a", "b"}, [][]string{{`with,comma`, `with"quote`}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"with,comma"`) || !strings.Contains(out, `"with""quote"`) {
		t.Errorf("quoting wrong: %q", out)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.123) != "12.3%" {
		t.Errorf("Pct = %q", Pct(0.123))
	}
	if Ms(0.0015) != "1.50" {
		t.Errorf("Ms = %q", Ms(0.0015))
	}
	if TDP(1.234) != "1.23x" {
		t.Errorf("TDP = %q", TDP(1.234))
	}
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
}

func TestTable1MatchesCatalog(t *testing.T) {
	var b strings.Builder
	if err := Table1(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, g := range hw.Catalog() {
		if !strings.Contains(out, g.Name) {
			t.Errorf("Table I missing %s", g.Name)
		}
	}
	if !strings.Contains(out, "1979.0") {
		t.Error("Table I missing the H100 FP16 headline")
	}
}

func TestTable2MatchesZoo(t *testing.T) {
	var b strings.Builder
	if err := Table2(&b); err != nil {
		t.Fatal(err)
	}
	for _, m := range model.Zoo() {
		if !strings.Contains(b.String(), m.Name) {
			t.Errorf("Table II missing %s", m.Name)
		}
	}
}

func samplePoints(t *testing.T) []sweep.Point {
	t.Helper()
	tiny := model.Config{Name: "tiny", Arch: model.GPT3, NominalParams: 1e8,
		Layers: 4, Heads: 4, Hidden: 256, FFN: 1024, Vocab: 2048, SeqLen: 128}
	res, err := (&sweep.Runner{}).Run(context.Background(), []core.Config{{
		System: hw.SystemH100x4(), Model: tiny, Parallelism: "fsdp",
		Batch: 8, Format: precision.FP16, MatrixUnits: true,
	}, {
		System: hw.SystemA100x4(), Model: model.GPT3_13B(), Parallelism: "fsdp",
		Batch: 8, Format: precision.FP16, MatrixUnits: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ok := res.Points[0]; ok.Res == nil {
		t.Fatalf("tiny point failed: %v", ok.Err)
	}
	if oom := res.Points[1]; oom.OOM == nil {
		t.Fatalf("13B on A100 not classified OOM: %v", oom.Err)
	}
	return res.Points
}

func TestFigureRenderersHandleOOM(t *testing.T) {
	pts := samplePoints(t)
	renderers := map[string]func(w *strings.Builder) error{
		"overlap": func(w *strings.Builder) error { return OverlapFigure(w, pts) },
		"slow":    func(w *strings.Builder) error { return SlowdownFigure(w, pts) },
		"e2e":     func(w *strings.Builder) error { return E2EFigure(w, pts) },
		"power":   func(w *strings.Builder) error { return PowerFigure(w, pts) },
	}
	for name, r := range renderers {
		var b strings.Builder
		if err := r(&b); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !strings.Contains(b.String(), "OOM") {
			t.Errorf("%s: OOM row not rendered", name)
		}
		if !strings.Contains(b.String(), "tiny") {
			t.Errorf("%s: result row not rendered", name)
		}
	}
}

func TestHeadline(t *testing.T) {
	pts := samplePoints(t)
	var b strings.Builder
	if err := Headline(&b, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "paper") {
		t.Error("headline should cite the paper targets")
	}
}

func TestAblationFigure(t *testing.T) {
	pts := samplePoints(t)
	var b strings.Builder
	err := AblationFigure(&b, pts, func(p sweep.Point) string { return p.Config.Format.String() })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "FP16") {
		t.Error("variant column missing")
	}
}

func TestRowsAndAggregate(t *testing.T) {
	spec := &sweep.Spec{
		GPUs:         []string{"H100", "MI250"},
		Models:       []string{"GPT-3 XL"},
		Parallelisms: []string{"fsdp", "pp"},
		Formats:      []string{"fp16"},
		Batches:      []int{8},
	}
	res, err := (&sweep.Runner{Cache: sweep.NewMemCache()}).RunSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res)
	if len(rows) != len(res.Points) {
		t.Fatalf("%d rows for %d points", len(rows), len(res.Points))
	}
	for _, r := range rows {
		if r.Status != "ok" {
			t.Errorf("row %q status %q", r.Label, r.Status)
		}
		if r.E2EOvl <= 0 || r.E2ESeq <= 0 {
			t.Errorf("row %q has empty metrics", r.Label)
		}
	}
	agg := AggregateSweep(rows)
	if agg.Points != 4 || agg.OK != 4 || agg.Hits != 0 {
		t.Errorf("aggregate %+v", agg)
	}
	if !strings.Contains(agg.String(), "4 points: 4 ok") {
		t.Errorf("aggregate string %q", agg.String())
	}
	var sb strings.Builder
	if err := SweepTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "H100x4 FSDP GPT-3 XL bs=8 FP16") {
		t.Errorf("table missing config label:\n%s", sb.String())
	}
}
