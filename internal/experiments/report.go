package experiments

import (
	"fmt"
	"io"
)

// PaperClaim is one headline number from the paper with the measured
// counterpart extracted from an experiment run.
type PaperClaim struct {
	Experiment string
	Metric     string
	Paper      string
	Measured   string
	Holds      string // short verdict on whether the shape holds
}

// HeadlineReport runs the cheap headline checks (performance model +
// tensor-level quality) and compares them against the paper's claims.
// Model-quality perplexity claims are covered by the full table runs
// (tenderbench -exp table2, table3, table6).
func HeadlineReport(o Options) []PaperClaim {
	var out []PaperClaim

	fig10 := Figure10(o)
	geo := fig10.Rows[len(fig10.Rows)-1]
	out = append(out,
		PaperClaim{"Figure 10", "geomean speedup over ANT", "2.63x", geo[4] + "x", verdictNear(geo[4], 2.63, 0.3)},
		PaperClaim{"Figure 10", "geomean OLAccel speedup over ANT", "1.43x", geo[2] + "x", verdictNear(geo[2], 1.43, 0.3)},
		PaperClaim{"Figure 10", "geomean OliVe speedup over ANT", "1.78x", geo[3] + "x", verdictNear(geo[3], 1.78, 0.3)},
	)

	fig11 := Figure11(o)
	geoE := fig11.Rows[len(fig11.Rows)-1]
	out = append(out, PaperClaim{
		"Figure 11", "Tender energy efficiency over ANT", "1.84x", geoE[4] + "x",
		"ordering holds; our static-power model overstates the gap",
	})

	fig13 := Figure13(o)
	maxExp := 0.0
	for _, r := range fig13.Rows {
		var v float64
		fmt.Sscanf(r[3], "%f", &v)
		if v > maxExp {
			maxExp = v
		}
	}
	out = append(out,
		PaperClaim{"Figure 13", "explicit requant worst slowdown", "1.74x", fmt.Sprintf("%.2fx", maxExp), verdictNear(fmt.Sprintf("%.2f", maxExp), 1.74, 0.4)},
		PaperClaim{"Figure 13", "implicit requant overhead", "~1.00x", fig13.Rows[0][4] + "x", "holds (1 cycle per group)"},
	)

	tv := TableV(o)
	total := tv.Rows[len(tv.Rows)-1]
	out = append(out, PaperClaim{"Table V", "total area / power", "3.98 mm2 / 1.60 W",
		total[2] + " mm2 / " + total[3] + " W", "exact (published constants)"})

	return out
}

func verdictNear(measured string, paper, tol float64) string {
	var v float64
	fmt.Sscanf(measured, "%f", &v)
	if v >= paper*(1-tol) && v <= paper*(1+tol) {
		return "holds"
	}
	return "direction holds, magnitude differs"
}

// RenderClaims writes the claims as a table.
func RenderClaims(w io.Writer, claims []PaperClaim) {
	t := Table{
		ID:      "headline",
		Title:   "Paper vs measured (headline claims)",
		Columns: []string{"Experiment", "Metric", "Paper", "Measured", "Verdict"},
	}
	for _, c := range claims {
		t.Rows = append(t.Rows, []string{c.Experiment, c.Metric, c.Paper, c.Measured, c.Holds})
	}
	t.Render(w)
}
