// Calibration example: run Tender's offline calibration on recorded
// activations, export the static metadata (channel order, biases, group
// scales) to JSON — the contents of the hardware Index Buffer and VPU
// scale registers — and re-import it to quantize a new batch. Calibration
// implements json.Marshaler and json.Unmarshaler; loading validates the
// metadata and rebuilds the channel→group map.
package main

import (
	"encoding/json"
	"fmt"
	"math"

	"tender/internal/tender"
	"tender/internal/tensor"
	"tender/internal/workload"
)

func main() {
	// Calibration set: four activation samples from the same site.
	var samples []*tensor.Matrix
	for i := 0; i < 4; i++ {
		samples = append(samples, workload.OPT67BAttentionInput(128, 128, uint64(10+i)))
	}
	cfg := tender.DefaultConfig(8)
	cfg.RowChunk = 64
	cal := tender.Calibrate(samples, cfg)

	blob, err := json.MarshalIndent(cal, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Printf("exported calibration: %d bytes JSON, %d row chunks\n", len(blob), len(cal.Chunks))
	fmt.Printf("chunk 0 group sizes: %v\n", cal.Chunks[0].GroupCounts)
	fmt.Printf("chunk 0 scales:      %.5v\n", cal.Chunks[0].Scales)

	// Round-trip and quantize an unseen batch with the restored metadata.
	var cal2 tender.Calibration
	if err := json.Unmarshal(blob, &cal2); err != nil {
		panic(err)
	}

	fresh := workload.OPT67BAttentionInput(128, 128, 99)
	a := cal.FakeQuantActivation(fresh)
	b := cal2.FakeQuantActivation(fresh)
	fmt.Printf("restored metadata reproduces quantization exactly: %v\n",
		tensor.MaxAbsDiff(a, b) == 0)
	rel := math.Sqrt(tensor.MSE(fresh, b)) / fresh.MeanAbs()
	fmt.Printf("INT8 activation relative RMS error on unseen batch: %.5f\n", rel)
}
