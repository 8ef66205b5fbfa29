package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"tender/internal/model"
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
	if _, ok := ByID("table5", q); !ok {
		t.Fatal("table5 must resolve")
	}
	if _, ok := ByID("nope", q); ok {
		t.Fatal("unknown id must not resolve")
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

func TestServeBenchQuick(t *testing.T) {
	t.Chdir(t.TempDir()) // BENCH_serve.json lands here, not in the repo
	tab := ServeBench(q)
	if tab.ID != "serve" {
		t.Fatalf("id %q", tab.ID)
	}
	// Three schemes × batch 1, 8, 32 + the memory-pressure row (kv-paged)
	// + the two shared-prefix rows (prefix-cold, prefix-cache).
	if len(tab.Rows) != 12 {
		t.Fatalf("expected 12 rows, got %d", len(tab.Rows))
	}
	fusedRows, kvRows, prefixRows := 0, 0, 0
	for _, row := range tab.Rows {
		if cellFloat(t, row[2]) <= 0 {
			t.Fatalf("non-positive throughput in row %v", row)
		}
		if strings.HasPrefix(row[0], "fused-decode/") {
			fusedRows++
		}
		if strings.HasPrefix(row[0], "kv-") {
			kvRows++
		}
		if strings.HasPrefix(row[0], "prefix-") {
			prefixRows++
		}
	}
	if fusedRows != 9 {
		t.Fatalf("expected 9 fused-decode rows, got %d", fusedRows)
	}
	if kvRows != 1 {
		t.Fatalf("expected 1 kv memory-pressure row, got %d", kvRows)
	}
	if prefixRows != 2 {
		t.Fatalf("expected 2 shared-prefix rows, got %d", prefixRows)
	}
	if _, err := os.Stat(ServeBenchFile); err != nil {
		t.Fatalf("BENCH_serve.json not emitted: %v", err)
	}
	blob, err := os.ReadFile(ServeBenchFile)
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]any
	if err := json.Unmarshal(blob, &results); err != nil {
		t.Fatalf("BENCH_serve.json not valid JSON: %v", err)
	}
	if len(results) != 12 {
		t.Fatalf("expected 12 JSON results, got %d", len(results))
	}
	var pagedSessions, kvBudget float64
	var ttftSpeedup, prefillSpeedup, prefixHits float64
	for _, r := range results {
		if r["decode_tokens_per_sec"].(float64) <= 0 {
			t.Fatalf("bad result %v", r)
		}
		switch r["scheme"] {
		case "kv-paged/fp32":
			pagedSessions = r["peak_active_sessions"].(float64)
			kvBudget = r["kv_budget_rows"].(float64)
		case "prefix-cache/fp32":
			ttftSpeedup = r["ttft_speedup_vs_cold"].(float64)
			prefillSpeedup = r["prefill_speedup_vs_cold"].(float64)
			prefixHits = r["prefix_hits"].(float64)
		}
	}
	// A worst-case (MaxSeq-preallocating) layout fits budget/MaxSeq
	// sessions; paging must at least double that.
	worstCase := math.Floor(kvBudget / float64(model.Registry("opt-6.7b").MaxSeq))
	if worstCase < 1 || pagedSessions < 2*worstCase {
		t.Fatalf("paged scheduler peaked at %v sessions under a %v-row budget; want ≥ 2 × %v",
			pagedSessions, kvBudget, worstCase)
	}
	// The shared-system-prompt acceptance bar: prefix caching must at
	// least double both TTFT and served prefill throughput over cold
	// prefill at batch ≥ 8, with every non-warm request hitting.
	if ttftSpeedup < 2 || prefillSpeedup < 2 {
		t.Fatalf("shared-prefix speedups below 2x: ttft %.2fx, prefill %.2fx", ttftSpeedup, prefillSpeedup)
	}
	if prefixHits <= 0 {
		t.Fatalf("prefix-cache row recorded no hits")
	}
}

func TestServeByID(t *testing.T) {
	t.Chdir(t.TempDir()) // ByID runs ServeBench; BENCH_serve.json lands here
	if _, ok := ByID("serve", q); !ok {
		t.Fatal("serve must resolve")
	}
}

func TestRouterBenchQuick(t *testing.T) {
	t.Chdir(t.TempDir()) // BENCH_serve.json lands here, not in the repo
	tab := RouterBench(q)
	if tab.ID != "router" {
		t.Fatalf("id %q", tab.ID)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(tab.Rows))
	}
	blob, err := os.ReadFile(ServeBenchFile)
	if err != nil {
		t.Fatalf("BENCH_serve.json not emitted: %v", err)
	}
	var results []map[string]any
	if err := json.Unmarshal(blob, &results); err != nil {
		t.Fatalf("BENCH_serve.json not valid JSON: %v", err)
	}
	byScheme := map[string]map[string]any{}
	for _, r := range results {
		byScheme[r["scheme"].(string)] = r
	}
	aff := byScheme["router-affinity/fp32"]
	rnd := byScheme["router-random/fp32"]
	fov := byScheme["router-failover/fp32"]
	if aff == nil || rnd == nil || fov == nil {
		t.Fatalf("missing router rows in %v", results)
	}
	// Acceptance bars: affinity preserves ≥ 0.9× the single-replica
	// aggregate hit rate, scatter degrades below affinity, and the
	// replica-kill run completes everything bit-identically.
	if aff["hit_rate_vs_single"].(float64) < 0.9 {
		t.Fatalf("affinity hit-rate ratio %v < 0.9", aff["hit_rate_vs_single"])
	}
	if rnd["prefix_hit_rate"].(float64) >= aff["prefix_hit_rate"].(float64) {
		t.Fatalf("random routing did not degrade hit rate: %v vs %v",
			rnd["prefix_hit_rate"], aff["prefix_hit_rate"])
	}
	if fov["completed_fraction"].(float64) != 1 || fov["bit_identical"].(bool) != true {
		t.Fatalf("failover row: %v", fov)
	}
	if fov["failovers"].(float64) <= 0 {
		t.Fatalf("failover row recorded no failovers: %v", fov)
	}
}

func TestGEMMBenchQuick(t *testing.T) {
	t.Chdir(t.TempDir()) // BENCH_serve.json lands here, not in the repo
	tab := GEMMBench(q)
	if tab.ID != "gemm" {
		t.Fatalf("id %q", tab.ID)
	}
	// Quick mode: two schemes × {naive, blocked} at batch 8, plus the three
	// KV-dtype memory-pressure rows.
	if len(tab.Rows) != 7 {
		t.Fatalf("expected 7 rows, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if cellFloat(t, row[2]) <= 0 {
			t.Fatalf("non-positive throughput in row %v", row)
		}
	}
	blob, err := os.ReadFile(ServeBenchFile)
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]any
	if err := json.Unmarshal(blob, &results); err != nil {
		t.Fatalf("BENCH_serve.json not valid JSON: %v", err)
	}
	if len(results) != 7 {
		t.Fatalf("expected 7 JSON results, got %d", len(results))
	}
	var f64Sessions, f16Sessions float64
	naive := map[string]float64{}
	blocked := map[string]float64{}
	for _, r := range results {
		scheme := r["scheme"].(string)
		switch {
		case scheme == "kv-f64/fp32":
			f64Sessions = r["peak_active_sessions"].(float64)
		case scheme == "kv-f16/fp32":
			f16Sessions = r["peak_active_sessions"].(float64)
		case strings.HasPrefix(scheme, "gemm-naive/"):
			naive[strings.TrimPrefix(scheme, "gemm-naive/")] = r["decode_tokens_per_sec"].(float64)
		case strings.HasPrefix(scheme, "gemm-blocked/"):
			blocked[strings.TrimPrefix(scheme, "gemm-blocked/")] = r["decode_tokens_per_sec"].(float64)
			if r["speedup_vs_naive"].(float64) <= 0 {
				t.Fatalf("blocked row without speedup: %v", r)
			}
		}
	}
	for _, scheme := range []string{"fp16", "tender:int"} {
		if naive[scheme] <= 0 || blocked[scheme] <= 0 {
			t.Fatalf("missing gemm rows for %s: naive %v, blocked %v", scheme, naive[scheme], blocked[scheme])
		}
	}
	// The KV-dtype acceptance bar: under the same byte budget, f16 pages
	// must at least double peak concurrency over f64.
	if f64Sessions <= 0 || f16Sessions < 2*f64Sessions {
		t.Fatalf("f16 KV peaked at %v sessions vs f64 %v; want ≥ 2× under the same byte budget",
			f16Sessions, f64Sessions)
	}
}

func TestGEMMByID(t *testing.T) {
	t.Chdir(t.TempDir()) // ByID runs GEMMBench; BENCH_serve.json lands here
	if _, ok := ByID("gemm", q); !ok {
		t.Fatal("gemm must resolve")
	}
}
