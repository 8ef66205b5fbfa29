package model_test

import (
	"fmt"
	"testing"

	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/tensor"
)

// replayDecode checks multi-row appends at an offset on contiguous
// sessions: a plain decode fixes each request's token stream, then a
// fresh session replays that stream k rows per Append after the prompt
// and the tokens are chosen again from the replayed rows. Every replayed
// row must equal the logits plain decode chose from, bit for bit.
func replayDecode(k int) identtest.Decoder {
	return func(t *testing.T, c identtest.Case) identtest.Output {
		fed := identtest.PlainDecode(t, c)
		out := identtest.Output{
			Tokens: make([][]int, len(c.Prompts)),
			Logits: make([]*tensor.Matrix, len(c.Prompts)),
		}
		for i, prompt := range c.Prompts {
			toks := fed.Tokens[i]
			rec := tensor.New(len(toks), c.Model.Cfg.Vocab)
			s := c.Model.NewSession(c.Engine, 0)
			logits := s.Append(prompt)
			copy(rec.Row(0), logits.Row(logits.Rows-1))
			// Token j is the input that yields row j+1.
			for at := 0; at < len(toks)-1; at += k {
				end := min(at+k, len(toks)-1)
				logits = s.Append(toks[at:end])
				for r := 0; r < logits.Rows; r++ {
					copy(rec.Row(at+1+r), logits.Row(r))
				}
			}
			s.ReleaseKV()
			rng := tensor.NewRNG(c.SeedBase + uint64(i))
			out.Tokens[i] = make([]int, len(toks))
			for j := range toks {
				if c.Temp > 0 {
					out.Tokens[i][j] = model.Sample(rec.Row(j), c.Temp, rng.Float64())
				} else {
					out.Tokens[i][j] = model.Greedy(rec.Row(j))
				}
			}
			out.Logits[i] = rec
		}
		return out
	}
}

// TestSpecDecodeBitIdentical covers what the speculative decoder's verify
// pass exercised, and keeps its name and cells: appending k ∈ {1, 2, 4, 8}
// rows to a session that already holds the prompt and earlier tokens
// yields, row for row, the logits of k single-token decode steps — for
// every row-independent scheme, greedy and sampled.
func TestSpecDecodeBitIdentical(t *testing.T) {
	m := model.New(model.TinyConfig())
	targets := []string{"fp32", "fp16", "tender", "uniform"}
	var paths []identtest.Path
	for _, k := range []int{1, 2, 4, 8} {
		paths = append(paths, identtest.Path{
			Label: fmt.Sprintf("spec-k=%d", k), D: replayDecode(k),
		})
	}
	identtest.Matrix{
		Model: m, Engines: identtest.Engines(t, m, targets), Schemes: targets,
		Temps:  []float64{0, 0.7},
		MaxNew: 8,
		Paths:  paths,
	}.Run(t)
}
