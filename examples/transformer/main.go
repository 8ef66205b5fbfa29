// Transformer example: run a scaled OPT-6.7B-style decoder end to end
// under several PTQ schemes and report the perplexity degradation each
// causes relative to the FP32 reference — a miniature Table II.
package main

import (
	"fmt"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/workload"
)

func main() {
	m := model.New(model.Registry("opt-6.7b"))
	fmt.Printf("model %s: %d layers, dmodel %d, %d heads\n",
		m.Cfg.Name, m.Cfg.Layers, m.Cfg.DModel, m.Cfg.Heads)

	// Static PTQ calibration (the stand-in for 128 Pile samples).
	rec := model.NewRecorder()
	m.Record(rec, workload.CalibrationStreams(1, 3, 128, m.Cfg.Vocab))

	// Evaluation stream + temperature anchored to the paper's FP16 base.
	eval := workload.TokenStream(workload.Wiki, 7, 192, m.Cfg.Vocab)
	temp := model.CalibrateTemperature(m, eval, 10.86)

	for _, bits := range []int{8, 4} {
		fmt.Printf("\nINT%d:\n", bits)
		for _, spec := range []string{
			"uniform:gran=tensor,dynamic",
			"smoothquant",
			"olive",
			"tender",
		} {
			r, err := engine.Resolve(spec, engine.BuildOptions{Bits: bits})
			if err != nil {
				panic(err)
			}
			res := model.TeacherPerplexity(m, r.Engine(rec), eval, temp)
			fmt.Printf("  %-22s perplexity %s (FP32 base %.2f)\n",
				r.Name, fmtPPL(res.PPL), res.Base)
		}
	}
}

func fmtPPL(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.3g", v)
	}
	return fmt.Sprintf("%.2f", v)
}
