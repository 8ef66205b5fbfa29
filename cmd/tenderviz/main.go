// Command tenderviz dumps the motivation data behind Figs. 2-3: the
// per-channel magnitude profile of an outlier-structured activation
// tensor, as an ASCII profile or CSV.
//
// Usage:
//
//	tenderviz                 # ASCII channel profile
//	tenderviz -csv            # channel,absmax,meanabs rows
//	tenderviz -model opt-6.7b -layer 1   # profile a real recorded layer input
package main

import (
	"flag"
	"fmt"
	"math"
	"strings"

	"tender/internal/model"
	"tender/internal/workload"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of the ASCII profile")
	modelName := flag.String("model", "", "profile a registry model's recorded attention input")
	layer := flag.Int("layer", 1, "layer to record when -model is set")
	rows := flag.Int("rows", 256, "tokens in the synthetic tensor")
	cols := flag.Int("cols", 512, "channels in the synthetic tensor")
	seed := flag.Uint64("seed", 8, "generation seed")
	flag.Parse()

	var st workload.ChannelStats
	switch {
	case *modelName != "":
		m := model.New(model.Registry(*modelName))
		rec := model.NewRecorder()
		m.Record(rec, [][]int{workload.TokenStream(workload.Wiki, *seed, 128, m.Cfg.Vocab)})
		x := rec.X[model.Site{Layer: *layer, Kind: model.KindQ, Head: -1}][0]
		st = workload.Channels(x)
		fmt.Printf("# attention input, %s layer %d (%dx%d)\n", *modelName, *layer, x.Rows, x.Cols)
	default:
		x := workload.OPT67BAttentionInput(*rows, *cols, *seed)
		st = workload.Channels(x)
		fmt.Printf("# synthetic OPT-6.7B-like attention input (%dx%d)\n", *rows, *cols)
	}

	if *csv {
		fmt.Println("channel,absmax,meanabs")
		for c := range st.AbsMax {
			fmt.Printf("%d,%.6f,%.6f\n", c, st.AbsMax[c], st.MeanAbs[c])
		}
		return
	}

	// ASCII profile: log-scale bar per bucket of channels, like the
	// vertical-line structure of Fig. 3.
	const buckets = 64
	n := len(st.AbsMax)
	per := (n + buckets - 1) / buckets
	var mx float64
	for _, v := range st.AbsMax {
		if v > mx {
			mx = v
		}
	}
	fmt.Printf("# channels per bucket: %d, global absmax: %.2f\n", per, mx)
	for b := 0; b < buckets && b*per < n; b++ {
		var bm float64
		for c := b * per; c < (b+1)*per && c < n; c++ {
			if st.AbsMax[c] > bm {
				bm = st.AbsMax[c]
			}
		}
		width := 0
		if bm > 0 && mx > 1 {
			width = int(40 * math.Log(1+bm) / math.Log(1+mx))
		}
		marker := ""
		if bm > mx/4 {
			marker = "  <- outlier channel(s)"
		}
		fmt.Printf("ch %4d-%4d |%s%s\n", b*per, min((b+1)*per, n)-1,
			strings.Repeat("#", width), marker)
	}
	fmt.Printf("# channels >8x median: %d\n", st.OutlierChannelCount(8))
}
