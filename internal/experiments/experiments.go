// Package experiments regenerates every table and figure of the paper's
// evaluation (§V and §VI) from the reproduction's own substrates. Each
// experiment returns a Table; cmd/tenderbench renders them and
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Options controls experiment fidelity.
type Options struct {
	// Quick shrinks sequence lengths and task sizes for CI-speed runs
	// (used by the go test / go bench harnesses).
	Quick bool
	// Seed offsets every stream/task seed (0 = canonical results).
	Seed uint64
	// ArtifactDir, when set, makes the serving benchmark attach a
	// lifecycle tracer to each scenario and drop per-scenario trace
	// artifacts (Chrome trace_event JSON + a metrics snapshot) there.
	ArtifactDir string
}

// evalSeq is the evaluation stream length.
func (o Options) evalSeq() int {
	if o.Quick {
		return 64
	}
	return 256
}

// calibStreams is (count, length) of calibration streams.
func (o Options) calibStreams() (int, int) {
	if o.Quick {
		return 2, 64
	}
	return 3, 128
}

// taskSize is the per-task question count for accuracy experiments.
func (o Options) taskSize() int {
	if o.Quick {
		return 12
	}
	return 60
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // e.g. "table2", "figure10"
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   (%s)\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// FormatPPL renders a perplexity the way the paper does: plain to two
// decimals when small, scientific (e.g. 5E+04) when huge.
func FormatPPL(v float64) string {
	switch {
	case math.IsInf(v, 0) || v >= 1e15:
		return ">1E+15"
	case v >= 1000:
		exp := int(math.Floor(math.Log10(v)))
		mant := v / math.Pow(10, float64(exp))
		return fmt.Sprintf("%.0fE+%02d", mant, exp)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// FormatAcc renders an accuracy percentage.
func FormatAcc(v float64) string { return fmt.Sprintf("%.2f", v) }

// FormatX renders a speedup/ratio.
func FormatX(v float64) string { return fmt.Sprintf("%.2f", v) }

// Geomean returns the geometric mean of xs.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(xs)))
}

// AllFuncs returns every experiment in paper order, lazily, so callers
// can render each table as soon as it completes.
func AllFuncs() []func(Options) Table {
	return []func(Options) Table{
		TableI, TableII, TableIII, TableIV, Figure9,
		TableV, Figure10, Figure11, Figure12,
		TableVI, TableVII, Figure13, Figure23Stats,
		AblationAlpha, AblationRowChunk, AblationBias,
		AblationClustering, AblationBits, AblationDataflow,
		ServeBench, RouterBench, ChaosBench, GEMMBench,
	}
}

// All runs every experiment in paper order.
func All(o Options) []Table {
	var out []Table
	for _, f := range AllFuncs() {
		out = append(out, f(o))
	}
	return out
}

// ByID returns the experiment function for an id ("table1".."table7",
// "figure9".."figure13", "figure23", "serve", "router", "chaos", "gemm").
func ByID(id string, o Options) (Table, bool) {
	fns := map[string]func(Options) Table{
		"table1":   TableI,
		"table2":   TableII,
		"table3":   TableIII,
		"table4":   TableIV,
		"table5":   TableV,
		"table6":   TableVI,
		"table7":   TableVII,
		"figure9":  Figure9,
		"figure10": Figure10,
		"figure11": Figure11,
		"figure12": Figure12,
		"figure13": Figure13,
		"figure23": Figure23Stats,
		"serve":    ServeBench,
		"router":   RouterBench,
		"chaos":    ChaosBench,
		"gemm":     GEMMBench,
	}
	if f, ok := fns[id]; ok {
		return f(o), true
	}
	return Table{}, false
}
