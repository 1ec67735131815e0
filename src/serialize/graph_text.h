/**
 * @file
 * Round-trip text serialization of ir::Graph -- the `.smgraph` format.
 *
 * Until this module, a graph could only come from a compiled-in zoo
 * builder keyed by (model, batch); `.smgraph` makes graphs standalone
 * *data*, so external models flow through compile, opt, the plan
 * cache, and both executors, and `core::PlanCacheDir` can validate a
 * cached plan against an adjacent serialized graph instead of
 * re-running a builder.  Same writer + tokenizing-parser idiom as
 * plan_text/.smdev, and the same bar: for every graph the builders or
 * passes produce,
 *
 *   serializeGraph(parseGraph(serializeGraph(g))) == serializeGraph(g)
 *   graphSignature(parseGraph(serializeGraph(g))) == graphSignature(g)
 *
 * Every Graph field round-trips: op kinds, node names, attrs
 * (including synthesized-constant salts and derived recipes, which are
 * ordinary integer attributes), value names/shapes/dtypes, and the
 * graph input/output lists.  Value producers are not written -- they
 * are derivable from node outputs and re-derived by the parser.
 *
 * Format v1 (one field per line; *name* fields take the rest of the
 * line, shapes are written compact with no internal spaces, everything
 * else is space-separated):
 *
 *   smartmem-graph v1
 *   values <N>
 *   value <id> <dtype> <shape> <name>        (xN, ids ascending)
 *   nodes <N>
 *   node <id> <kind> <output-value-id>       (xN, ids ascending)
 *   name <node name>
 *   in <count> <value-id>...
 *   attrs <count>
 *   attr <key> <count> <int64>...            (xcount, keys sorted)
 *   inputs <count> <value-id>...
 *   outputs <count> <value-id>...
 *   end
 *
 * parseGraph() runs ir::validateGraphParts() on everything it reads --
 * a file that parses lexically but encodes a dangling id, a cycle, a
 * shape-inference mismatch, or a malformed constant is rejected with
 * one diagnostic per violation.
 */
#ifndef SMARTMEM_SERIALIZE_GRAPH_TEXT_H
#define SMARTMEM_SERIALIZE_GRAPH_TEXT_H

#include <string>

#include "ir/graph.h"

namespace smartmem::serialize {

/** Bumped whenever the on-disk grammar changes; parseGraph() rejects
 *  every other version. */
constexpr int kGraphFormatVersion = 1;

/**
 * Canonical FNV-1a signature over every graph field a plan depends on
 * (node kinds/names/edges/attrs, value names/shapes/dtypes/producers,
 * graph inputs and outputs).  Two graphs with equal signatures are
 * interchangeable as the graph of a serialized plan; cache keys for
 * compiled plans embed the signature of the canonicalized graph.
 *
 * The hashed bytes are defined in graph_text.cc, not by the debug
 * printers: each id in decimal, each name, attributes as
 * "{key=v, key=[a,b]}" and shapes as "[2, 256, 4]", one field each.
 * Attrs::toString() and Shape::toString() print the same text today
 * (GraphText.SignatureMatchesTextDefinition), but changing them must
 * not change a cache key.  The hash streams these bytes without
 * building strings; it is not cached on the graph, since builders
 * expose partial graphs and plans are shared across threads.
 */
std::string graphSignature(const ir::Graph &graph);

/** Write `graph` in format v1 (see file header).  Deterministic:
 *  equal graphs serialize to byte-identical text. */
std::string serializeGraph(const ir::Graph &graph);

/**
 * Parse text produced by serializeGraph() (or hand-written in the same
 * grammar) into a validated graph.  Throws FatalError on malformed
 * text (wrong version, truncated or reordered fields, unparsable
 * shapes/dtypes/op kinds/numbers) and on structurally invalid graphs,
 * with every ir::validateGraphParts() diagnostic joined into the
 * message.
 */
ir::Graph parseGraph(const std::string &text);

} // namespace smartmem::serialize

#endif // SMARTMEM_SERIALIZE_GRAPH_TEXT_H
