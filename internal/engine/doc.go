// Package engine is the single entry point for constructing quantized
// inference engines: it resolves EngineSpec strings against one scheme
// registry and calibrates engines over a shared recorded workload.
//
// The spec grammar is
//
//	spec    := scheme[":" option ("," option)*]
//	option  := key "=" value | flag
//
// for example "fp32", "tender:bits=4,int" or "uniform:gran=column,dynamic".
// Canonical normalizes case, aliases, flag shorthands and option order;
// SplitSpecList parses CLI spec lists; Entries/SchemeNames enumerate the
// registry (tenderserve -list-schemes prints it).
//
// Resolve turns one spec into a scheme factory plus validated options;
// BuildEngines calibrates every requested engine against the same
// recorded activation/weight samples and — for weight matmul sites — runs
// the kernel's PrepareWeights once, so serving decode steps never
// re-quantize weights. With the Serving build option BuildEngines also
// runs the row-independence audit (model.Model.AuditRows) on every engine
// it calibrates and refuses the first that fails with a
// *model.RowCoupledError (errors.Is model.ErrRowCoupled): row
// independence is the precondition for chunked prefill, shared steps and
// prefix-cache mounts being bit-identical to one-shot evaluation, and the
// audit is the only rule for what serves.
package engine
