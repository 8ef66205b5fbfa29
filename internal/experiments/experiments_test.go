package experiments

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var q = Options{Quick: true}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimPrefix(s, ">")
	v, err := strconv.ParseFloat(strings.Replace(s, "E+", "e+", 1), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestFormatPPL(t *testing.T) {
	cases := map[float64]string{
		10.86:  "10.86",
		999:    "999.00",
		52340:  "5E+04",
		9.2e8:  "9E+08",
		1.2e16: ">1E+15",
	}
	for in, want := range cases {
		if got := FormatPPL(in); got != want {
			t.Fatalf("FormatPPL(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("Geomean = %v", g)
	}
	if Geomean(nil) != 0 {
		t.Fatal("empty geomean must be 0")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "x", Title: "T", Note: "n",
		Columns: []string{"A", "B"},
		Rows:    [][]string{{"1", "22"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "(n)", "333", "22"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableVMatchesPaper(t *testing.T) {
	tab := TableV(q)
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "Total" || last[2] != "3.98" || last[3] != "1.60" {
		t.Fatalf("Table V totals wrong: %v", last)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("Table V should have 6 components + total, got %d rows", len(tab.Rows))
	}
}

func TestFigure10ShapeAndOrdering(t *testing.T) {
	tab := Figure10(q)
	if len(tab.Rows) != 7 { // six models + geomean
		t.Fatalf("Figure 10 rows = %d", len(tab.Rows))
	}
	geo := tab.Rows[len(tab.Rows)-1]
	ant := cellFloat(t, geo[1])
	ola := cellFloat(t, geo[2])
	olv := cellFloat(t, geo[3])
	td := cellFloat(t, geo[4])
	if ant != 1 {
		t.Fatalf("ANT must normalize to 1, got %v", ant)
	}
	if !(td > olv && olv > ola && ola > ant) {
		t.Fatalf("speedup ordering violated: %v %v %v %v", ant, ola, olv, td)
	}
	// Headline band: Tender ≈ 2.63x over ANT.
	if td < 2.0 || td > 3.3 {
		t.Fatalf("Tender geomean speedup %v outside the paper band", td)
	}
}

func TestFigure11Ordering(t *testing.T) {
	tab := Figure11(q)
	geo := tab.Rows[len(tab.Rows)-1]
	ola := cellFloat(t, geo[2])
	olv := cellFloat(t, geo[3])
	td := cellFloat(t, geo[4])
	if !(td > olv && olv > ola && ola > 1) {
		t.Fatalf("energy-efficiency ordering violated: %v %v %v", ola, olv, td)
	}
}

func TestFigure13Shape(t *testing.T) {
	tab := Figure13(q)
	for _, row := range tab.Rows {
		exp := cellFloat(t, row[3])
		imp := cellFloat(t, row[4])
		if imp > 1.01 {
			t.Fatalf("implicit overhead must be ~0: %v", row)
		}
		if exp <= 1.05 {
			t.Fatalf("explicit requant must clearly slow down: %v", row)
		}
	}
	// Larger G must slow the explicit path further for the same model.
	g8 := cellFloat(t, tab.Rows[0][3])
	g16 := cellFloat(t, tab.Rows[3][3])
	if g16 <= g8 {
		t.Fatalf("explicit slowdown should grow with groups: %v vs %v", g8, g16)
	}
}

func TestFigure12Shape(t *testing.T) {
	tab := Figure12(q)
	if len(tab.Rows) != 10 { // 5 strategies × 2 GPUs
		t.Fatalf("Figure 12 rows = %d", len(tab.Rows))
	}
	// On each GPU: FP16 = 1.00; Tender SW < 1; per-channel > 1;
	// Tender MSE within 5x of per-channel MSE.
	for gpuIdx := 0; gpuIdx < 2; gpuIdx++ {
		rows := tab.Rows[gpuIdx*5 : gpuIdx*5+5]
		if cellFloat(t, rows[0][2]) != 1 {
			t.Fatalf("FP16 latency must be 1.00: %v", rows[0])
		}
		tender := cellFloat(t, rows[4][2])
		perChan := cellFloat(t, rows[3][2])
		if tender >= 1 {
			t.Fatalf("Tender SW should be (slightly) faster than FP16: %v", tender)
		}
		if perChan <= 1 {
			t.Fatalf("per-channel should be slower than FP16: %v", perChan)
		}
		if cellFloat(t, rows[4][3]) > 5*cellFloat(t, rows[3][3]) {
			t.Fatalf("Tender MSE should track per-channel MSE: %v vs %v", rows[4][3], rows[3][3])
		}
	}
}

func TestFigure23Outliers(t *testing.T) {
	tab := Figure23Stats(q)
	// Top channel must be far above the median.
	top := cellFloat(t, tab.Rows[0][3])
	if top < 8 {
		t.Fatalf("top channel only %vx the median", top)
	}
}

func TestTableIOrdering(t *testing.T) {
	tab := TableI(q)
	// Row layout: FP16, INT8 pt/pr/pc, INT4 pt/pr/pc; for every model the
	// per-column variant must be the best within its precision and INT4
	// per-tensor must blow up.
	for col := 1; col < len(tab.Columns); col++ {
		base := cellFloat(t, tab.Rows[0][col])
		i8pt := cellFloat(t, tab.Rows[1][col])
		i8pc := cellFloat(t, tab.Rows[3][col])
		i4pt := cellFloat(t, tab.Rows[4][col])
		i4pc := cellFloat(t, tab.Rows[6][col])
		if !(i8pc <= i8pt && i4pc <= i4pt) {
			t.Fatalf("col %d: per-column must be best within precision", col)
		}
		if i8pc > base*1.35 {
			t.Fatalf("col %d: INT8 per-column %v should sit near base %v", col, i8pc, base)
		}
		if i4pt < base*10 {
			t.Fatalf("col %d: INT4 per-tensor %v should blow up vs base %v", col, i4pt, base)
		}
	}
}

func TestFigure9Monotonicity(t *testing.T) {
	tab := Figure9(q)
	// More groups must not make INT4 perplexity dramatically worse; and
	// G=max must clearly beat G=1 (Fig. 9's message: two groups are not
	// enough).
	first4 := cellFloat(t, tab.Rows[0][1])
	last4 := cellFloat(t, tab.Rows[len(tab.Rows)-1][1])
	if last4 >= first4 {
		t.Fatalf("INT4 perplexity should fall with groups: G=1 %v vs max %v", first4, last4)
	}
}

func TestByID(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Fatalf("id %q listed twice", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || reflect.ValueOf(got.Run).Pointer() != reflect.ValueOf(e.Run).Pointer() {
			t.Fatalf("listed id %q does not resolve to its experiment", e.ID)
		}
	}
	// Nothing outside the list resolves, the retired serving drivers
	// included.
	for _, id := range []string{"", "nope", "Table5", "headline", "serve", "router", "chaos", "gemm"} {
		if _, ok := ByID(id); ok {
			t.Fatalf("unlisted id %q resolves", id)
		}
	}
	if e, _ := ByID("table5"); e.Run(q).ID != "table5" {
		t.Fatal("table5 must render a table with its own id")
	}
}

func TestHeadlineReport(t *testing.T) {
	claims := HeadlineReport(q)
	if len(claims) < 5 {
		t.Fatalf("expected several headline claims, got %d", len(claims))
	}
	var buf bytes.Buffer
	RenderClaims(&buf, claims)
	if !strings.Contains(buf.String(), "2.63") {
		t.Fatal("headline report must mention the paper's 2.63x claim")
	}
}

func TestAblationBiasHelpsOneSidedOutliers(t *testing.T) {
	tab := AblationBias(q)
	on := cellFloat(t, tab.Rows[0][1])
	off := cellFloat(t, tab.Rows[1][1])
	if on >= off {
		t.Fatalf("bias subtraction should help: on %v vs off %v", on, off)
	}
}

func TestAblationBitsTrend(t *testing.T) {
	// Tensor-level quantization error is strictly monotone in bits
	// (asserted in internal/tender); perplexity through the nonlinear
	// model can wiggle locally at quick-mode sizes, so assert the trend:
	// 8-bit must clearly beat 4-bit, and no step may blow up.
	tab := AblationBits(q)
	first := cellFloat(t, tab.Rows[0][1])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][1])
	if last >= first {
		t.Fatalf("8-bit (%v) must beat 4-bit (%v)", last, first)
	}
	prev := first
	for _, row := range tab.Rows[1:] {
		v := cellFloat(t, row[1])
		if v > prev*2 {
			t.Fatalf("bit-width step blew up: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestAblationDataflowTradeoffs(t *testing.T) {
	tab := AblationDataflow(q)
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	// §VI-D: beyond the array rows, OS re-streams weights every pass — its
	// per-token weight traffic stops shrinking while WS's keeps falling.
	osW1 := cellFloat(t, first[3])
	osWN := cellFloat(t, last[3])
	wsW1 := cellFloat(t, first[4])
	wsWN := cellFloat(t, last[4])
	if wsWN >= wsW1 {
		t.Fatal("WS weight traffic must amortize with batch")
	}
	if osWN < wsWN*2 {
		t.Fatalf("at large batch OS should re-stream weights: OS %v vs WS %v", osWN, wsWN)
	}
	_ = osW1
	// WS pays partial-sum movement that OS avoids entirely.
	if cellFloat(t, last[5]) <= 0 {
		t.Fatal("WS must report psum traffic")
	}
	// Per-token cycles improve with batch for both dataflows.
	if cellFloat(t, last[1]) >= cellFloat(t, first[1]) ||
		cellFloat(t, last[2]) >= cellFloat(t, first[2]) {
		t.Fatal("batching must amortize cycles in both dataflows")
	}
}

func TestAblationClusteringTable(t *testing.T) {
	tab := AblationClustering(q)
	if len(tab.Rows) != 2 {
		t.Fatal("two grouping strategies expected")
	}
	if !strings.Contains(tab.Rows[0][3], "yes") || !strings.Contains(tab.Rows[1][3], "no") {
		t.Fatal("implicit-requant capability column wrong")
	}
}
