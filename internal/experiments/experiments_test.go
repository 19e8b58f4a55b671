package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

// smallConfig keeps the real-system experiments fast in tests while
// preserving every qualitative shape.
func smallConfig() SystemConfig {
	cfg := DefaultSystemConfig()
	cfg.Lines = 20000
	cfg.Parts = 10000
	cfg.FactRows = 30000
	cfg.Samples = 4
	return cfg
}

func seriesByLabel(t *testing.T, f *Figure, label string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s: no series %q (have %v)", f.ID, label, labels(f))
	return Series{}
}

func labels(f *Figure) []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Label
	}
	return out
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := &Figure{
		ID: "x", Title: "T", XLabel: "x", YLabel: "y",
		Notes: []string{"note"},
		Series: []Series{
			{Label: "a", Points: []Point{{1, 2}, {3, 4}}},
			{Label: "b,c", Points: []Point{{1, 5}}},
		},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: T ==", "note", "a", "b,c", "2", "4", "5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.Contains(csv, `"b,c"`) {
		t.Errorf("CSV did not escape comma label:\n%s", csv)
	}
	if !strings.Contains(csv, "x,a,1,2") {
		t.Errorf("CSV missing data row:\n%s", csv)
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		3:         "3",
		0.25:      "0.25",
		0.0000123: "1.2300e-05",
	}
	for in, want := range cases {
		if got := formatNum(in); got != want {
			t.Errorf("formatNum(%g) = %q, want %q", in, got, want)
		}
	}
	if got := formatNum(math.NaN()); got != "NaN" {
		t.Errorf("NaN = %q", got)
	}
}

func TestFig1CrossoverAt26Percent(t *testing.T) {
	f, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	p1 := seriesByLabel(t, f, "Plan 1")
	p2 := seriesByLabel(t, f, "Plan 2")
	// Plan 1 cheaper below 26%, plan 2 cheaper above.
	for i := range p1.Points {
		x := p1.Points[i].X
		d := p1.Points[i].Y - p2.Points[i].Y
		if x < 0.25 && d >= 0 {
			t.Errorf("at %g plan 1 not cheaper", x)
		}
		if x > 0.27 && d <= 0 {
			t.Errorf("at %g plan 2 not cheaper", x)
		}
	}
}

func TestFig2PDFMassConcentration(t *testing.T) {
	f, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// Plan 2's density must be much more peaked than plan 1's.
	peak := func(s Series) float64 {
		m := 0.0
		for _, p := range s.Points {
			if p.Y > m {
				m = p.Y
			}
		}
		return m
	}
	if peak(seriesByLabel(t, f, "Plan 2")) < 3*peak(seriesByLabel(t, f, "Plan 1")) {
		t.Error("plan 2 density not appreciably more peaked")
	}
}

func TestFig3QuantileNotes(t *testing.T) {
	f, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(f.Notes, " ")
	for _, want := range []string{"30.2", "31.5", "33.5", "31.9"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing paper value %s: %v", want, f.Notes)
		}
	}
	// CDFs are nondecreasing.
	for _, s := range f.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y-1e-12 {
				t.Fatalf("%s cdf decreased at %g", s.Label, s.Points[i].X)
			}
		}
	}
}

func TestFig4PriorsCloseSampleSizesDiffer(t *testing.T) {
	f, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	u100 := seriesByLabel(t, f, "uniform n=100")
	j100 := seriesByLabel(t, f, "Jeffreys n=100")
	j500 := seriesByLabel(t, f, "Jeffreys n=500")
	var maxPriorGap, maxSizeGap float64
	for i := range u100.Points {
		if d := math.Abs(u100.Points[i].Y - j100.Points[i].Y); d > maxPriorGap {
			maxPriorGap = d
		}
		if d := math.Abs(j100.Points[i].Y - j500.Points[i].Y); d > maxSizeGap {
			maxSizeGap = d
		}
	}
	if maxPriorGap*4 > maxSizeGap {
		t.Errorf("prior gap %g not much smaller than size gap %g", maxPriorGap, maxSizeGap)
	}
}

func TestFig5ThresholdShapes(t *testing.T) {
	f, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	t95 := seriesByLabel(t, f, "T=95%")
	t5 := seriesByLabel(t, f, "T=5%")
	// T=95 is the flat scan curve: nearly constant.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range t95.Points {
		lo = math.Min(lo, p.Y)
		hi = math.Max(hi, p.Y)
	}
	if hi-lo > 0.5 {
		t.Errorf("T=95 spread = %g", hi-lo)
	}
	// T=5 is cheap at zero selectivity and expensive at 1%.
	if t5.Points[0].Y > 10 {
		t.Errorf("T=5 at 0 selectivity = %g", t5.Points[0].Y)
	}
	// At 1% selectivity the occasional risky pick costs T=5 a premium
	// over the always-scan T=95 curve.
	last := t5.Points[len(t5.Points)-1]
	flat := t95.Points[len(t95.Points)-1]
	if last.Y <= flat.Y+0.5 {
		t.Errorf("T=5 at 1%% = %g, want above the scan's %g", last.Y, flat.Y)
	}
}

func TestFig6VarianceMonotone(t *testing.T) {
	f, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Series are in threshold order; std dev decreases.
	prev := math.Inf(1)
	for _, s := range f.Series {
		sd := s.Points[0].Y
		if sd > prev+1e-9 {
			t.Errorf("%s: std dev %g rose", s.Label, sd)
		}
		prev = sd
	}
	// The best mean occurs at a moderate threshold (T=50 or T=80), not an
	// extreme (Section 5.2.1's observation).
	bestLabel := ""
	best := math.Inf(1)
	for _, s := range f.Series {
		if m := s.Points[0].X; m < best {
			best = m
			bestLabel = s.Label
		}
	}
	if bestLabel != "T=80%" && bestLabel != "T=50%" {
		t.Errorf("best mean at %s", bestLabel)
	}
}

func TestFig7LargerSamplesBetter(t *testing.T) {
	f, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	avg := func(s Series) float64 {
		sum := 0.0
		for _, p := range s.Points {
			sum += p.Y
		}
		return sum / float64(len(s.Points))
	}
	n100 := avg(seriesByLabel(t, f, "n=100"))
	n5000 := avg(seriesByLabel(t, f, "n=5000"))
	if n5000 >= n100 {
		t.Errorf("n=5000 average %g not better than n=100 %g", n5000, n100)
	}
}

func TestFig8ThresholdsConverge(t *testing.T) {
	f, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// With the crossover at 5.2%, the three threshold curves nearly
	// coincide relative to the plan-cost scale (the Section 5.2.3 point).
	t5 := seriesByLabel(t, f, "T=5%")
	t95 := seriesByLabel(t, f, "T=95%")
	var maxGap float64
	for i := range t5.Points {
		if d := math.Abs(t5.Points[i].Y - t95.Points[i].Y); d > maxGap {
			maxGap = d
		}
	}
	if maxGap > 6 {
		t.Errorf("threshold gap = %g, want small relative to 35–155s costs", maxGap)
	}
}

func TestExp1ShapesMatchPaper(t *testing.T) {
	a, b, err := Exp1Figures(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t95 := seriesByLabel(t, a, "T=95%")
	t5 := seriesByLabel(t, a, "T=5%")
	hist := seriesByLabel(t, a, "Histograms")
	// T=95: flat.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range t95.Points {
		lo = math.Min(lo, p.Y)
		hi = math.Max(hi, p.Y)
	}
	if (hi-lo)/hi > 0.1 {
		t.Errorf("T=95 not flat: [%g, %g]", lo, hi)
	}
	// T=5 beats T=95 at the lowest selectivity and loses at the highest.
	if t5.Points[0].Y >= t95.Points[0].Y {
		t.Error("T=5 not faster at zero selectivity")
	}
	if t5.Points[len(t5.Points)-1].Y <= t95.Points[len(t95.Points)-1].Y {
		t.Error("T=5 not slower at the top selectivity")
	}
	// Histograms track the risky plan: worst at the top selectivity.
	histLast := hist.Points[len(hist.Points)-1].Y
	if histLast <= t95.Points[len(t95.Points)-1].Y {
		t.Error("histograms not worse than the scan at high selectivity")
	}
	// Panel (b): variance decreases with threshold.
	prev := math.Inf(1)
	for _, label := range []string{"T=5%", "T=20%", "T=50%", "T=80%", "T=95%"} {
		sd := seriesByLabel(t, b, label).Points[0].Y
		if sd > prev+1e-9 {
			t.Errorf("%s std dev %g rose above %g", label, sd, prev)
		}
		prev = sd
	}
}

func TestExp2Runs(t *testing.T) {
	cfg := smallConfig()
	cfg.Thresholds = []core.ConfidenceThreshold{0.05, 0.95}
	cfg.Samples = 3
	a, b, err := Exp2Figures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != 3 { // 2 thresholds + histograms
		t.Errorf("fig10a series = %v", labels(a))
	}
	if len(b.Series) != 3 {
		t.Errorf("fig10b series = %v", labels(b))
	}
	// Selectivities span a nontrivial range.
	s := a.Series[0]
	if len(s.Points) < 4 {
		t.Fatalf("too few points: %d", len(s.Points))
	}
	first, last := s.Points[0].X, s.Points[len(s.Points)-1].X
	if first == last {
		t.Error("selectivity did not vary")
	}
	// All times positive.
	for _, ser := range a.Series {
		for _, p := range ser.Points {
			if p.Y <= 0 {
				t.Fatalf("%s: nonpositive time %g", ser.Label, p.Y)
			}
		}
	}
}

func TestExp3ShapesMatchPaper(t *testing.T) {
	cfg := smallConfig()
	// The semijoin strategy only beats the hash cascade once the fact
	// table is large enough that scanning it costs more than the fixed
	// per-dimension-key index seeks; stay at the default scale.
	cfg.FactRows = 100000
	cfg.Thresholds = []core.ConfidenceThreshold{0.05, 0.95}
	cfg.Samples = 3
	a, _, err := Exp3Figures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t5 := seriesByLabel(t, a, "T=5%")
	t95 := seriesByLabel(t, a, "T=95%")
	hist := seriesByLabel(t, a, "Histograms")
	// Low threshold: fast at join fraction 0.
	if t5.Points[0].Y >= t95.Points[0].Y {
		t.Error("T=5 not faster at zero join fraction")
	}
	// Histograms always estimate 0.1% -> always the semijoin plan ->
	// slowest at the top fraction.
	last := len(hist.Points) - 1
	if hist.Points[last].Y <= t95.Points[last].Y {
		t.Error("histograms not slower than conservative at high fraction")
	}
}

func TestExp4SampleSizeTrend(t *testing.T) {
	cfg := smallConfig()
	fig, err := Exp4Figure(cfg, []int{50, 500})
	if err != nil {
		t.Fatal(err)
	}
	n50 := seriesByLabel(t, fig, "n=50")
	n500 := seriesByLabel(t, fig, "n=500")
	hist := seriesByLabel(t, fig, "Histograms")
	// The 50-tuple sample always scans: its std dev is (near) zero — the
	// Section 6.2.4 self-adjusting anomaly.
	if n50.Points[0].Y > 0.02 {
		t.Errorf("n=50 std dev = %g, want ~0 (always-scan)", n50.Points[0].Y)
	}
	if hist.Points[0].X <= 0 {
		t.Error("histogram point missing")
	}
	_ = n500
}

func TestOverheadFigure(t *testing.T) {
	cfg := smallConfig()
	fig, err := OverheadFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	histSeries := seriesByLabel(t, fig, "Histograms")
	sampling := seriesByLabel(t, fig, "Sampling")
	if histSeries.Points[0].Y <= 0 {
		t.Error("histogram timing nonpositive")
	}
	if len(sampling.Points) < 2 {
		t.Fatal("too few sampling points")
	}
	for _, p := range sampling.Points {
		if p.Y <= 0 {
			t.Errorf("n=%g: sampling timing nonpositive", p.X)
		}
	}
	if len(fig.Notes) == 0 {
		t.Error("missing overhead ratio note")
	}
	// Sampling cost grows with sample size. The figure's wall-clock
	// difference between its smallest and largest sample is within
	// scheduler noise at these sizes, so the growth is checked on the work
	// itself: the sample tuples one optimization of the figure's query
	// evaluates.
	db, err := tpch.Generate(tpch.Config{Lines: cfg.Lines, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	small, large := sampling.Points[0].X, sampling.Points[len(sampling.Points)-1].X
	tuples := map[float64]int{}
	for _, n := range []float64{small, large} {
		set, err := sample.BuildAll(db, int(n), stats.NewRNG(cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		bayes, err := core.NewBayesEstimator(set, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		est := &tupleCounter{BayesEstimator: bayes}
		opt, err := optimizer.New(ctx, est)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Optimize(tpch.Experiment1Query(60)); err != nil {
			t.Fatal(err)
		}
		tuples[n] = est.tuples
	}
	if tuples[small] <= 0 || tuples[large] <= tuples[small] {
		t.Errorf("sample tuples evaluated per optimization: %d at n=%g, %d at n=%g; want growth", tuples[small], small, tuples[large], large)
	}
}

// tupleCounter is a Bayes estimator that counts the sample tuples its
// estimates evaluate.
type tupleCounter struct {
	*core.BayesEstimator
	tuples int
}

func (c *tupleCounter) Estimate(req core.Request) (core.Estimate, error) {
	_, n, _, err := c.Observe(req)
	if err != nil {
		return core.Estimate{}, err
	}
	c.tuples += n
	return c.BayesEstimator.Estimate(req)
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Errorf("IDs = %v", ids)
	}
	// Ordered numerically with ovh last.
	if ids[0] != "fig1" || ids[len(ids)-1] != "ovh" {
		t.Errorf("ordering = %v", ids)
	}
	for i := 1; i < len(ids)-1; i++ {
		if idKey(ids[i-1]) >= idKey(ids[i]) {
			t.Errorf("order violation at %v", ids[i])
		}
	}
	figs, err := Run("fig1", DefaultSystemConfig())
	if err != nil || len(figs) != 1 {
		t.Errorf("Run(fig1) = %v, %v", figs, err)
	}
	if _, err := Run("nope", DefaultSystemConfig()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultSystemConfig()
	bad.Samples = 0
	if _, _, err := Exp1Figures(bad); err == nil {
		t.Error("zero samples accepted")
	}
	bad2 := DefaultSystemConfig()
	bad2.Thresholds = []core.ConfidenceThreshold{2}
	if _, _, err := Exp1Figures(bad2); err == nil {
		t.Error("bad threshold accepted")
	}
	bad3 := DefaultSystemConfig()
	bad3.Thresholds = nil
	if _, _, err := Exp1Figures(bad3); err == nil {
		t.Error("no thresholds accepted")
	}
}

func TestAblationRuleFigure(t *testing.T) {
	cfg := smallConfig()
	cfg.Samples = 3
	fig, err := AblationRuleFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 { // four thresholds + mean + ML
		t.Fatalf("series = %v", labels(fig))
	}
	get := func(label string) Point {
		return seriesByLabel(t, fig, label).Points[0]
	}
	q5 := get("quantile T=5%")
	q95 := get("quantile T=95%")
	mean := get("posterior-mean")
	ml := get("max-likelihood")
	// The quantile rule spans the risk spectrum; the point rules sit in
	// the middle of it (at or between the extremes on the variance axis).
	if !(q95.Y <= mean.Y+1e-9 && mean.Y <= q5.Y+1e-9) {
		t.Errorf("mean rule sd %g outside quantile span [%g, %g]", mean.Y, q95.Y, q5.Y)
	}
	if !(q95.Y <= ml.Y+1e-9 && ml.Y <= q5.Y+1e-9) {
		t.Errorf("ML rule sd %g outside quantile span [%g, %g]", ml.Y, q95.Y, q5.Y)
	}
	// And crucially, neither point rule can reach the conservative end.
	if mean.Y <= q95.Y+1e-9 || ml.Y <= q95.Y+1e-9 {
		t.Error("point rules matched the conservative variance — they should not be able to")
	}
}
