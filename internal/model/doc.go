// Package model provides the transformer substrate the reproduction
// quantizes and serves: scaled-down OPT/LLaMA/BERT stand-ins with
// deterministic pseudo-random parameters and the fixed-channel activation
// outlier structure of the paper's §II-B, so quantization error propagates
// through a real forward pass.
//
// Every matmul routes through the Engine interface, which is how exact
// FP32 (Exact), the paper's Tender algorithm and all baseline schemes
// execute the same model. The transformer block exists once, pass: Step
// runs it over the stacked segments of many sessions (each a prefill
// chunk of any length or one decode token, attention still per session,
// only each segment's last row unembedded), and Session.Append,
// Model.Forward, Model.ClassifyLogits and Model.Record over one segment —
// Forward on a throwaway session, ClassifyLogits as one bidirectional pass
// on an internal encoder session. The tests keep the former full-sequence
// block as an independent oracle (oracle_test.go) to hold pass to.
// Calibrate compiles a SchemeEngine from the per-site operands
// Model.Record collects in a Recorder, preparing weight packs once (the
// compile-once split internal/engine exposes).
//
// KV state is one tensor.PagedRows per layer side, drawing float64 pages
// from a tensor.BlockPool: a private one for NewSession, the server's
// shared one for NewSessionOn. PrefixCache builds shared-prompt KV reuse
// on the pages' reference counts — a trie of page-aligned token chunks
// whose entries hold the K/V pages of cached prompt prefixes, mounted into
// new sessions by NewSessionOn so covered tokens skip prefill entirely.
// One audit, Model.AuditRows (Model.RowIndependent is its boolean form),
// decides what may serve: it walks every weight site and the score and
// value sites of every head, and only an engine that declares them all
// row-independent may stack sessions in one Step or re-chunk prefill
// bit-identically. OliVe fails it at its first weight site and every
// engine that quantizes attention at its first score site;
// engine.BuildEngines refuses both for serving with ErrRowCoupled.
//
// Throughout the package the contract is bit-identity: chunked prefill,
// fused steps mixing prefill and decode, any KV page size, and prefix
// mounts all produce exactly the logits of a one-shot single-session run,
// for every engine that passes the audit — the tests in session_test.go,
// paged_test.go, batch_test.go and prefix_test.go enforce it per registry
// scheme.
package model
