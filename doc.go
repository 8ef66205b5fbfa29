// Package tender is a from-scratch Go reproduction of "Tender:
// Accelerating Large Language Models via Tensor Decomposition and Runtime
// Requantization" (ISCA 2024): the decomposed PTQ algorithm with
// power-of-2 channel grouping and implicit requantization, the baseline
// quantization schemes it is evaluated against, a transformer model
// substrate, and a cycle-level accelerator simulator.
//
// Quantized inference engines are constructed through exactly one entry
// point, internal/engine, which resolves EngineSpec strings
//
//	spec    := scheme[":" option ("," option)*]
//	option  := key "=" value | flag
//
// such as "fp32", "tender:bits=4,int" or "uniform:gran=column,dynamic"
// against a single scheme registry. Engines execute in two phases
// mirroring the paper's calibration-time/runtime split: every matmul
// site's SiteKernel packs its weights once (PrepareWeights — quantized
// codes, scales, channel groups, outlier splits, block exponents, all
// immutable) and the per-call hot path (Apply) quantizes only
// activations, which is what keeps serving decode steps cheap.
//
// On top of the packed engines, the serving scheduler (internal/serve)
// fuses every step: the requests on one engine — prefill chunks, resumed
// tails and decode tokens alike — advance through model.Step, one forward
// pass over their stacked segments per work item — one MatMul per weight
// site over all the rows, per-session attention, only each segment's last
// row unembedded, an arena-recycled zero-allocation hot path. It is the
// same incremental block model.Session.Append runs, so fusion is
// bit-identical to stepping each session alone for every engine served:
// one rule decides what serves, the row-independence audit
// (model.Model.AuditRows over every weight and attention site;
// schemes.RowIndependent documents the per-scheme side), which
// engine.BuildEngines and serve.New enforce.
//
// KV cache memory is paged: session caches are tensor.PagedRows stores of
// fixed-size float64 pages acquired lazily from a shared, size-bounded
// tensor.BlockPool. The scheduler admits by KV budget
// (serve.Config.KVBudgetRows), reserves page-granular growth each
// iteration, and preempts the most recently admitted request when the
// pool runs dry; preempted requests requeue and resume by re-prefilling
// their retained prompt + generated tokens with their RNG stream intact,
// so preemption never changes tokens. Attention walks the cache in
// gather-free page spans in tensor.MatMul's accumulation order, so the
// page size never changes a bit for any scheme.
//
// On top of paging, common prompt prefixes are shared: pages are
// refcounted, completed prefills donate their prompt's KV pages to a
// per-engine prefix index (model.PrefixCache, a trie of page-aligned
// token chunks), and later prompts sharing the prefix mount those pages
// instead of recomputing them — copy-on-write protects a partially filled
// shared page, admission charges only the unshared tail against the KV
// budget, and unreferenced cached prefixes are evicted LRU-first whenever
// live sessions need the memory (serve.Config.PrefixCache, the
// tenderserve -prefix-cache flag). Hits are bit-identical to cold
// prefill for every engine served.
//
// Serving scales out by sharding: internal/router fronts N replicas
// (in-process, or separate tenderserve processes over HTTP) and places
// each request by consistent-hashing its page-aligned prompt-prefix
// chunks, so prompts sharing a prefix keep hitting the same replica's
// prefix cache; residual load spills by queue depth and KV occupancy,
// and failed replicas drain out of the hash ring with requests failing
// over to the survivors.
//
// The one invariant every layer preserves: scheduling, batching, fusion,
// paging, preemption, prefix sharing, routing and failover change
// wall-clock and memory — and with the router, placement — never tokens.
//
// See README.md for the layout and serving quickstart, and
// docs/ARCHITECTURE.md for the layer-by-layer design, the KV page-table
// diagram, the determinism invariant and the metrics reference. The
// root package only anchors module documentation and the benchmark
// harness (bench_test.go); all functionality lives under internal/.
package tender
