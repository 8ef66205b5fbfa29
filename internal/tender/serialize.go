package tender

import (
	"encoding/json"
	"fmt"
	"math"
)

// calibrationJSON is the on-disk form of a Calibration: exactly the
// metadata the hardware consumes — Index Buffer contents (Order),
// rescale-signal positions (GroupCounts), VPU scale registers (Scales)
// and per-channel biases — plus the configuration that produced it.
type calibrationJSON struct {
	Bits          int         `json:"bits"`
	Groups        int         `json:"groups"`
	Alpha         int         `json:"alpha"`
	RowChunk      int         `json:"row_chunk"`
	DisableBias   bool        `json:"disable_bias,omitempty"`
	UseClustering bool        `json:"use_clustering,omitempty"`
	Cols          int         `json:"cols"`
	Chunks        []chunkJSON `json:"chunks"`
}

type chunkJSON struct {
	Bias        []float64 `json:"bias"`
	Order       []int     `json:"order"`
	GroupCounts []int     `json:"group_counts"`
	Scales      []float64 `json:"scales"`
}

// MarshalJSON implements json.Marshaler for Calibration.
func (cal *Calibration) MarshalJSON() ([]byte, error) {
	out := calibrationJSON{
		Bits: cal.Cfg.Bits, Groups: cal.Cfg.Groups, Alpha: cal.Cfg.Alpha,
		RowChunk: cal.Cfg.RowChunk, DisableBias: cal.Cfg.DisableBias,
		UseClustering: cal.Cfg.UseClustering, Cols: cal.Cols,
	}
	for _, c := range cal.Chunks {
		out.Chunks = append(out.Chunks, chunkJSON{
			Bias: c.Bias, Order: c.Order, GroupCounts: c.GroupCounts, Scales: c.Scales,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Calibration, validating
// the metadata and rebuilding the channel→group map from the Index Buffer
// layout. Scales must be finite and positive; without clustering each must
// be the previous one divided by α — the same float division Calibrate
// does — because MatMulImplicit dequantizes with the last scale alone and
// is only equal to MatMulExplicit when the groups are exactly α apart.
func (cal *Calibration) UnmarshalJSON(data []byte) error {
	var in calibrationJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	cfg := Config{
		Bits: in.Bits, Groups: in.Groups, Alpha: in.Alpha,
		RowChunk: in.RowChunk, DisableBias: in.DisableBias,
		UseClustering: in.UseClustering,
	}
	if cfg.Bits < 2 || cfg.Bits > 8 || cfg.Groups < 1 || cfg.Alpha < 2 || cfg.RowChunk < 0 || in.Cols < 1 {
		return fmt.Errorf("tender: invalid calibration header %+v", in)
	}
	if len(in.Chunks) == 0 {
		return fmt.Errorf("tender: calibration has no chunks")
	}
	chunks := make([]ChunkMeta, 0, len(in.Chunks))
	for i, c := range in.Chunks {
		if len(c.Bias) != in.Cols || len(c.Order) != in.Cols {
			return fmt.Errorf("tender: chunk %d has %d biases / %d order entries for %d cols",
				i, len(c.Bias), len(c.Order), in.Cols)
		}
		if len(c.GroupCounts) != cfg.Groups || len(c.Scales) != cfg.Groups {
			return fmt.Errorf("tender: chunk %d group metadata does not match %d groups", i, cfg.Groups)
		}
		meta := ChunkMeta{
			Bias: c.Bias, Order: c.Order, GroupCounts: c.GroupCounts,
			Scales: c.Scales, Group: make([]int, in.Cols),
		}
		seen := make([]bool, in.Cols)
		pos, total := 0, 0
		for g, n := range c.GroupCounts {
			if n < 0 {
				return fmt.Errorf("tender: chunk %d has negative group count", i)
			}
			total += n
			if total > in.Cols {
				return fmt.Errorf("tender: chunk %d group counts exceed %d cols", i, in.Cols)
			}
			for j := 0; j < n; j++ {
				ch := c.Order[pos]
				pos++
				if ch < 0 || ch >= in.Cols || seen[ch] {
					return fmt.Errorf("tender: chunk %d has invalid channel %d in Order", i, ch)
				}
				seen[ch] = true
				meta.Group[ch] = g
			}
		}
		if total != in.Cols {
			return fmt.Errorf("tender: chunk %d group counts sum to %d, want %d", i, total, in.Cols)
		}
		for g, sc := range c.Scales {
			if !(sc > 0) || math.IsInf(sc, 1) {
				return fmt.Errorf("tender: chunk %d scale %d is %v, want finite and > 0", i, g, sc)
			}
			if g == 0 {
				continue
			}
			if want := c.Scales[g-1] / float64(cfg.Alpha); !cfg.UseClustering && sc != want {
				return fmt.Errorf("tender: chunk %d scale %d is %v, want scale %d / alpha = %v", i, g, sc, g-1, want)
			}
			if sc >= c.Scales[g-1] {
				return fmt.Errorf("tender: chunk %d scales not strictly descending", i)
			}
		}
		chunks = append(chunks, meta)
	}
	cal.Cfg = cfg
	cal.Cols = in.Cols
	cal.Chunks = chunks
	return nil
}
