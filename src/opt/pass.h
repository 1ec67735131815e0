/**
 * @file
 * Graph-level optimization pass framework plus a rewriting helper.
 * Plan-level optimizations (fusion, elimination, layout selection) live
 * in src/core; these passes normalize graphs before planning.
 *
 * Passes are pure graph -> graph functions with a statistics side
 * channel (nodes removed / folded / fused).  A pass takes its graph by
 * value, and one that finds nothing to do MUST return that argument
 * unchanged -- a move, not a copy.  Canonicalization owns plan-cache
 * keys, so an untouched graph has to keep a byte-stable
 * serialize::graphSignature().
 *
 * Rewrites renumber every value id.  Synthesized constants derive
 * their contents from the producing value id, so every rebuild helper
 * here stamps a "salt" attribute carrying the original stream id --
 * rewritten graphs execute with bit-identical weights (see
 * exec::Executor::synthesizeConstant and docs/PASSES.md).
 */
#ifndef SMARTMEM_OPT_PASS_H
#define SMARTMEM_OPT_PASS_H

#include <memory>
#include <string>
#include <vector>

#include "ir/graph.h"

namespace smartmem::opt {

/** What one pass invocation did to the graph. */
struct PassStats
{
    /** Nodes dropped without replacement (dead code, no-ops,
     *  duplicates merged by CSE). */
    int nodesRemoved = 0;

    /** Operator nodes replaced by constants (constant folding,
     *  conv+batchnorm folding). */
    int nodesFolded = 0;

    /** Nodes merged into a neighbouring node (reshape chains,
     *  transpose pairs). */
    int nodesFused = 0;

    /** True iff the pass returned a rewritten graph. */
    bool changed = false;

    int total() const { return nodesRemoved + nodesFolded + nodesFused; }
};

/** A graph -> graph transformation. */
class Pass
{
  public:
    virtual ~Pass() = default;
    virtual std::string name() const = 0;

    /** Run the pass; `stats` reports what changed.  Implementations
     *  return `graph` itself (same contents, same signature, same
     *  node buffer) when they have nothing to do. */
    virtual ir::Graph run(ir::Graph graph, PassStats &stats) const = 0;

    /** Convenience overload discarding statistics. */
    ir::Graph run(ir::Graph graph) const
    {
        PassStats s;
        return run(std::move(graph), s);
    }
};

/** One pass invocation inside a pipeline run. */
struct PassRun
{
    std::string pass;
    int iteration = 0; // fixed-point sweep index, 0-based
    PassStats stats;
    int operatorsBefore = 0;
    int operatorsAfter = 0;
};

/** Aggregated record of a pipeline invocation. */
struct PipelineStats
{
    std::vector<PassRun> runs;
    int iterations = 0;
    int operatorsBefore = 0;
    int operatorsAfter = 0;

    bool changed() const;

    /** Sum of per-run stats for the named pass across all sweeps. */
    PassStats totalFor(const std::string &pass) const;

    /** Aligned per-pass summary table (for --print-stats). */
    std::string toString() const;
};

/**
 * Runs a sequence of passes, verifying the graph after each.  Also the
 * registry of named passes (`create`, `passNames`) and the owner of
 * the default canonicalization pipeline.
 */
class PassManager
{
  public:
    PassManager &add(std::unique_ptr<Pass> pass);

    /** Add a registered pass by name; FatalError on unknown names,
     *  listing the catalog. */
    PassManager &add(const std::string &name);

    /** One sweep over the pass sequence. */
    ir::Graph run(ir::Graph graph, PipelineStats *stats = nullptr) const;

    /** Sweep the sequence until a full sweep changes nothing (or
     *  `max_iterations` sweeps ran). */
    ir::Graph runToFixedPoint(ir::Graph graph,
                              PipelineStats *stats = nullptr,
                              int max_iterations = 8) const;

    /** Construct a registered pass by name; FatalError on unknown
     *  names, listing the catalog. */
    static std::unique_ptr<Pass> create(const std::string &name);

    /** Registered pass names, in catalog order. */
    static const std::vector<std::string> &passNames();

    /** The canonicalization pipeline core::canonicalizeGraph() runs:
     *  identity-elim, cse, algebraic, const-fold, conv-bn-fold,
     *  attention-fusion, dce. */
    static PassManager defaultPipeline();

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** Removes nodes whose results cannot reach a graph output. */
class DeadCodeElim : public Pass
{
  public:
    std::string name() const override { return "dce"; }
    ir::Graph run(ir::Graph graph, PassStats &stats) const override;
    using Pass::run;
};

/** Drops Identity nodes and no-op Reshape/Transpose (same shape, or
 *  identity permutation), rewiring consumers to the input. */
class IdentityElim : public Pass
{
  public:
    std::string name() const override { return "identity-elim"; }
    ir::Graph run(ir::Graph graph, PassStats &stats) const override;
    using Pass::run;
};

/**
 * Common-subexpression elimination: hash-cons operator nodes by
 * (kind, attrs, resolved inputs) and literal-data constants by
 * (shape, dtype, payload), redirecting duplicates to one survivor.
 * Operand ids are sorted for commutative kinds (Add, Mul), so a+b and
 * b+a hash-cons to one node.  Synthesized constants are never merged
 * -- distinct value streams are distinct weights by construction.
 */
class CommonSubexprElim : public Pass
{
  public:
    std::string name() const override { return "cse"; }
    ir::Graph run(ir::Graph graph, PassStats &stats) const override;
    using Pass::run;
};

/**
 * Constant folding: replaces operators whose inputs are all constants
 * with a single Constant node.  Literal-data constants fold to literal
 * payloads; synthesized constants fold to derived-recipe constants
 * (attrs recording the source stream) so the fold is valid under every
 * executor seed.  Covers Gather(table, literal indices) and
 * Reshape(constant).
 */
class ConstantFold : public Pass
{
  public:
    std::string name() const override { return "const-fold"; }
    ir::Graph run(ir::Graph graph, PassStats &stats) const override;
    using Pass::run;
};

/**
 * Algebraic simplification: drops multiply-by-one Scale, add/sub of a
 * literal all-zero constant, mul/div by a literal all-one constant,
 * full-range Slice, all-zero Pad and single-input Concat; collapses
 * Reshape-of-Reshape chains and composes Transpose-of-Transpose pairs.
 */
class AlgebraicSimplify : public Pass
{
  public:
    std::string name() const override { return "algebraic"; }
    ir::Graph run(ir::Graph graph, PassStats &stats) const override;
    using Pass::run;
};

/**
 * Conv+BatchNorm folding: a convolution whose sole consumer is an
 * inference-mode BatchNorm over synthesized scale/bias constants is
 * rewritten to a single convolution with a derived folded weight
 * (per-output-channel scaled) and the BN bias as a third conv input.
 */
class ConvBatchNormFold : public Pass
{
  public:
    std::string name() const override { return "conv-bn-fold"; }
    ir::Graph run(ir::Graph graph, PassStats &stats) const override;
    using Pass::run;
};

/**
 * Attention-block fusion: rewrites the canonical attention chain
 *
 *   BatchMatMul(q, k, transB=1) -> [Scale] -> [Add bias-constant]
 *     -> Softmax(last axis) -> BatchMatMul(attn, v)
 *
 * (rank-3 operands, every intermediate sole-consumed and not a graph
 * output) into a single FusedAttention(q, k, v[, bias]) node carrying
 * the Scale's "scale_milli" attr.  At most ONE bias Add participates:
 * chains stacking a relative-position bias AND a mask constant, or
 * with odd shapes/axes, are left untouched byte-stably.  The executors
 * evaluate the fused node without materializing the O(n^2) score
 * matrix (online softmax; see docs/EXECUTION.md).
 */
class AttentionFusion : public Pass
{
  public:
    std::string name() const override { return "attention-fusion"; }
    ir::Graph run(ir::Graph graph, PassStats &stats) const override;
    using Pass::run;
};

/**
 * Rebuilds `graph` through a GraphBuilder.  A pass marks the nodes it
 * drops (`skip`) and redirects their outputs to surviving values
 * (chains are followed), emits the nodes it rewrites through
 * `builder()` and `map()`, and `copy()`s the rest in node order; then
 * `finish()` marks the outputs and verifies.  The bookkeeping is flat
 * vectors indexed by node and value id.  Copied synthesized constants
 * are stamped with their original stream id (see file header).
 */
class GraphRewriter
{
  public:
    explicit GraphRewriter(const ir::Graph &graph);

    /** Drop node `n` (idempotent). */
    void skip(ir::NodeId n)
    {
        char &s = skipped_[static_cast<std::size_t>(n)];
        skipCount_ += s == 0;
        s = 1;
    }
    bool skipped(ir::NodeId n) const
    {
        return skipped_[static_cast<std::size_t>(n)] != 0;
    }
    int skipCount() const { return skipCount_; }

    /** Reads of old value `from` read old value `to` instead. */
    void redirect(ir::ValueId from, ir::ValueId to)
    {
        redirect_[static_cast<std::size_t>(from)] = to;
    }

    /** `v` with redirects followed: still an id of the old graph. */
    ir::ValueId chase(ir::ValueId v) const;

    /** The rebuilt id of old value `v`, redirects followed; panics if
     *  that value has not been emitted yet. */
    ir::ValueId operator()(ir::ValueId v) const;

    /** Record that old value `old` was rebuilt as `now`. */
    void map(ir::ValueId old, ir::ValueId now)
    {
        mapped_[static_cast<std::size_t>(old)] = now;
    }

    ir::GraphBuilder &builder() { return builder_; }

    /** Emit `n` unchanged, inputs remapped. */
    void copy(const ir::Node &n);

    /** Copy every node not skipped, then finish(). */
    ir::Graph rebuild();

    /** Mark the old graph's outputs, remapped, and verify. */
    ir::Graph finish();

  private:
    const ir::Graph &graph_;
    ir::GraphBuilder builder_;
    std::vector<char> skipped_;         // by old node id
    std::vector<ir::ValueId> redirect_; // by old value id, -1 = none
    std::vector<ir::ValueId> mapped_;   // by old value id, -1 = not yet
    int skipCount_ = 0;
};

/**
 * Attrs for rebuilding the Constant node `n` produced in `graph`:
 * a copy of its attrs with the synthesis stream pinned via "salt" so
 * the rebuilt constant keeps its contents under renumbering.  Literal
 * ("data") constants are returned as-is.
 */
ir::Attrs constantAttrs(const ir::Graph &graph, const ir::Node &n);

} // namespace smartmem::opt

#endif // SMARTMEM_OPT_PASS_H
