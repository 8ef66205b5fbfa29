package model

import (
	"math"
	"sort"

	"tender/internal/tensor"
)

// probFloor is the smallest probability used inside cross-entropy terms;
// it caps the perplexity of completely broken schemes at astronomically
// large but finite values (the paper reports figures like 1E+6 and 9E+8).
const probFloor = 1e-30

// warmupPositions excludes the first few positions, which carry little
// context, from perplexity averages.
const warmupPositions = 4

// softmaxVec converts logits to probabilities at the given temperature.
func softmaxVec(logits []float64, temp float64) []float64 {
	out := make([]float64, len(logits))
	mx := math.Inf(-1)
	for _, v := range logits {
		if v/temp > mx {
			mx = v / temp
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v/temp - mx)
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
	return out
}

// entropyOf returns the Shannon entropy of p in nats.
func entropyOf(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// PerplexityResult carries the reference and quantized perplexities for
// one (model, scheme, stream) combination.
type PerplexityResult struct {
	// Base is the FP32 reference perplexity exp(mean H(p_ref)).
	Base float64
	// PPL is the quantized model's perplexity under the reference
	// distribution: exp(mean cross-entropy(p_ref, p_q)). PPL >= Base,
	// with equality iff the quantized logits match the reference.
	PPL float64
}

// TeacherPerplexity evaluates eng against the FP32 reference on a token
// stream. The metric is the expected perplexity of the quantized model on
// text distributed according to the reference model — exp(H(p) + KL(p‖q))
// averaged over positions — which anchors the FP16/FP32 row and degrades
// monotonically with quantization error (see the README paper map).
func TeacherPerplexity(m *Model, eng Engine, tokens []int, temp float64) PerplexityResult {
	return TeacherPerplexityAgainst(m.Forward(tokens, Exact{}), m, eng, tokens, temp)
}

// TeacherPerplexityAgainst is TeacherPerplexity with precomputed reference
// logits, so experiment sweeps pay the FP32 forward only once per stream.
func TeacherPerplexityAgainst(ref *tensor.Matrix, m *Model, eng Engine, tokens []int, temp float64) PerplexityResult {
	qlog := m.Forward(tokens, eng)
	n := ref.Rows
	var sumH, sumCE float64
	count := 0
	for t := warmupPositions; t < n-1; t++ {
		p := softmaxVec(ref.Row(t), temp)
		q := softmaxVec(qlog.Row(t), temp)
		sumH += entropyOf(p)
		var ce float64
		for v, pv := range p {
			qv := q[v]
			if qv < probFloor {
				qv = probFloor
			}
			ce -= pv * math.Log(qv)
		}
		sumCE += ce
		count++
	}
	if count == 0 {
		return PerplexityResult{Base: 1, PPL: 1}
	}
	return PerplexityResult{
		Base: math.Exp(sumH / float64(count)),
		PPL:  math.Exp(sumCE / float64(count)),
	}
}

// CalibrateTemperature finds the softmax temperature at which the FP32
// reference perplexity equals target on the given stream. Anchoring the
// base row to the paper's published FP16 perplexities makes the measured
// quantization deltas directly comparable (README paper map, §V-§VI).
func CalibrateTemperature(m *Model, tokens []int, target float64) float64 {
	ref := m.Forward(tokens, Exact{})
	baseAt := func(temp float64) float64 {
		var sumH float64
		count := 0
		for t := warmupPositions; t < ref.Rows-1; t++ {
			sumH += entropyOf(softmaxVec(ref.Row(t), temp))
			count++
		}
		return math.Exp(sumH / float64(count))
	}
	lo, hi := 1e-3, 50.0
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi)
		if baseAt(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// Task is a synthetic classification task whose labels come from the FP32
// teacher with task-specific label noise, calibrated so the FP32 accuracy
// matches the paper's published value (Table IV / Table VII substitution).
type Task struct {
	Name string
	// Inputs are the token sequences; Labels the (noisy) gold classes.
	Inputs [][]int
	Labels []int
	// Options is the number of answer classes.
	Options int
	// Candidates holds, for zero-shot tasks, the candidate answer token
	// per option for each question (nil for encoder classification).
	Candidates [][]int
}

// MakeClassificationTask builds a binary task for an encoder model:
// random inputs labelled by the FP32 teacher's argmax, with noise flips
// so the teacher's own accuracy is about targetAcc.
func MakeClassificationTask(m *Model, name string, n, seqLen int, targetAcc float64, seed uint64) Task {
	rng := tensor.NewRNG(seed)
	task := Task{Name: name, Options: m.Cfg.NumClasses}
	for i := 0; i < n; i++ {
		toks := make([]int, seqLen)
		for j := range toks {
			toks[j] = rng.Intn(m.Cfg.Vocab)
		}
		logits := m.ClassifyLogits(toks, Exact{})
		label := argmax(logits)
		if rng.Float64() > targetAcc {
			label = (label + 1 + rng.Intn(m.Cfg.NumClasses-1)) % m.Cfg.NumClasses
		}
		task.Inputs = append(task.Inputs, toks)
		task.Labels = append(task.Labels, label)
	}
	return task
}

// ClassificationAccuracy scores eng on the task.
func ClassificationAccuracy(m *Model, eng Engine, task Task) float64 {
	correct := 0
	for i, toks := range task.Inputs {
		if argmax(m.ClassifyLogits(toks, eng)) == task.Labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(task.Inputs))
}

// MakeZeroShotTask builds a multiple-choice task for a decoder model:
// each question is a context stream plus `options` candidate answer
// tokens; gold labels follow the FP32 teacher's ranking with noise flips
// targeting the paper's FP32 accuracy.
func MakeZeroShotTask(m *Model, name string, n, seqLen, options int, targetAcc float64, seed uint64) Task {
	rng := tensor.NewRNG(seed)
	task := Task{Name: name, Options: options}
	for i := 0; i < n; i++ {
		toks := make([]int, seqLen)
		for j := range toks {
			toks[j] = rng.Intn(m.Cfg.Vocab)
		}
		cands := make([]int, options)
		seen := map[int]bool{}
		for j := range cands {
			for {
				c := rng.Intn(m.Cfg.Vocab)
				if !seen[c] {
					seen[c] = true
					cands[j] = c
					break
				}
			}
		}
		logits := m.Forward(toks, Exact{})
		label := bestCandidate(logits.Row(logits.Rows-1), cands)
		if rng.Float64() > targetAcc {
			label = (label + 1 + rng.Intn(options-1)) % options
		}
		task.Inputs = append(task.Inputs, toks)
		task.Candidates = append(task.Candidates, cands)
		task.Labels = append(task.Labels, label)
	}
	return task
}

// ZeroShotAccuracy scores eng on a multiple-choice task by logit ranking
// at the final position (the lm-evaluation-harness protocol reduced to
// single-token answers).
func ZeroShotAccuracy(m *Model, eng Engine, task Task) float64 {
	correct := 0
	for i, toks := range task.Inputs {
		logits := m.Forward(toks, eng)
		if bestCandidate(logits.Row(logits.Rows-1), task.Candidates[i]) == task.Labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(task.Inputs))
}

func bestCandidate(logits []float64, cands []int) int {
	best, bv := 0, math.Inf(-1)
	for i, c := range cands {
		if logits[c] > bv {
			best, bv = i, logits[c]
		}
	}
	return best
}

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// MSELogits returns the mean squared error between the reference and
// quantized logits on a stream — the raw signal behind every quality
// metric here.
func MSELogits(m *Model, eng Engine, tokens []int) float64 {
	ref := m.Forward(tokens, Exact{})
	q := m.Forward(tokens, eng)
	return tensor.MSE(ref, q)
}

// MedianOf returns the median of xs (used by experiment summaries).
func MedianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
