/**
 * @file
 * Tests for the `.smgraph` graph serialization layer: the golden
 * corpus holds every zoo graph (raw and canonicalized, batches 1 and
 * 4) to the tentpole bar -- serializeGraph(parseGraph(text)) == text
 * and a stable graphSignature -- a rejection table drives every
 * malformed-input class through parseGraph(), the differential test
 * proves plans compiled from an imported graph are byte-identical at
 * serializer granularity to builder-compiled plans, and the
 * validateGraphParts/makeGraph/loadGraphFile/FileGraphSource edges
 * are pinned individually.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/compile_session.h"
#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "ir/graph.h"
#include "models/graph_source.h"
#include "models/models.h"
#include "opt/pass.h"
#include "serialize/graph_text.h"
#include "serialize/plan_text.h"
#include "support/error.h"
#include "support/hash.h"

namespace smartmem {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("smartmem-" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** The full round-trip bar from the graph_text.h header. */
void
expectGraphRoundTrips(const ir::Graph &g)
{
    const std::string text = serialize::serializeGraph(g);
    ir::Graph parsed = serialize::parseGraph(text);
    EXPECT_EQ(serialize::serializeGraph(parsed), text);
    EXPECT_EQ(serialize::graphSignature(parsed),
              serialize::graphSignature(g));
    EXPECT_TRUE(ir::validateGraph(parsed).empty());
    EXPECT_EQ(parsed.operatorCount(), g.operatorCount());
    EXPECT_EQ(parsed.layoutTransformCount(), g.layoutTransformCount());
}

/** A four-node graph whose serialized text the surgery tests edit. */
ir::Graph
tinyGraph()
{
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape{1, 8});
    auto w = b.constant("w", ir::Shape{8, 4});
    b.markOutput(b.unary(ir::OpKind::Relu, b.matmul(x, w)));
    return b.finish();
}

/** Replace the first occurrence of `from` (which must exist). */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    auto pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << "surgery target missing: " << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

// ---------------------------------------------------------------------
// Round-trip corpus
// ---------------------------------------------------------------------

TEST(GraphSerialize, GoldenCorpusRoundTripsEveryZooGraph)
{
    for (const std::string &model : models::evaluationModels()) {
        for (int batch : {1, 4}) {
            SCOPED_TRACE(model + " batch " + std::to_string(batch));
            ir::Graph g = models::buildModel(model, batch);
            expectGraphRoundTrips(g);
            // The canonicalized form is what cache keys sign and
            // PlanCacheDir stores next to every plan.
            expectGraphRoundTrips(core::canonicalizeGraph(g));
        }
    }
}

TEST(GraphSerialize, SignatureSeparatesModelsBatchesAndEdits)
{
    ir::Graph a = models::buildModel("ResNext", 1);
    EXPECT_NE(serialize::graphSignature(a),
              serialize::graphSignature(models::buildModel("ResNext", 4)));
    EXPECT_NE(serialize::graphSignature(a),
              serialize::graphSignature(models::buildModel("Swin", 1)));
    // Serialization itself never perturbs the signature.
    EXPECT_EQ(serialize::graphSignature(
                  serialize::parseGraph(serialize::serializeGraph(a))),
              serialize::graphSignature(a));
}

// ---------------------------------------------------------------------
// Signature definition and recorded digests
// ---------------------------------------------------------------------

/**
 * graphSignature() as a sequence of text fields: every id in decimal,
 * the op kind's name, every name, Attrs::toString() and
 * Shape::toString(), each fed to FNV-1a as one field.  The signature
 * must hash exactly these bytes, however it produces them -- plan
 * cache keys written by earlier builds depend on it.
 */
std::string
textSignature(const ir::Graph &graph)
{
    auto num = [](std::int64_t v) { return std::to_string(v); };
    Fnv1a f;
    f.feed(num(static_cast<std::int64_t>(graph.nodes().size())));
    f.feed(num(static_cast<std::int64_t>(graph.values().size())));
    for (const ir::Node &n : graph.nodes()) {
        f.feed(num(n.id));
        f.feed(ir::opKindName(n.kind));
        f.feed(n.name);
        for (ir::ValueId v : n.inputs)
            f.feed(num(v));
        f.feed(num(n.output));
        f.feed(n.attrs.toString());
    }
    for (const ir::Value &v : graph.values()) {
        f.feed(num(v.id));
        f.feed(v.name);
        f.feed(v.shape.toString());
        f.feed(num(static_cast<std::int64_t>(v.dtype)));
        f.feed(num(v.producer));
    }
    for (ir::ValueId v : graph.inputIds())
        f.feed(num(v));
    for (ir::ValueId v : graph.outputIds())
        f.feed(num(v));
    return f.hex();
}

/** Rank-0 values, empty names and attributes at the int64 limits:
 *  the fields the signature has to render exactly as text would. */
ir::Graph
edgeCaseGraph()
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    ir::Attrs extremes;
    extremes.set("max", kMax)
        .set("min", kMin)
        .set("mixed", std::vector<std::int64_t>{kMin, -1, 0, 7, kMax})
        .set("neg", -42)
        .set("none", std::vector<std::int64_t>{})
        .set("one", std::vector<std::int64_t>{3});

    ir::GraphBuilder b;
    auto s = b.input("s", ir::Shape{});
    auto c = b.constant("c", ir::Shape{}, ir::DType::F32, extremes);
    auto y = b.addNode(ir::OpKind::Add, {s, c}, extremes, "y");
    auto x = b.input("x", ir::Shape{2, 3}, ir::DType::I32);
    auto idx = b.constantData("idx", ir::Shape{3}, {0, 1, 1});
    auto t = b.transpose(x, {1, 0});
    b.markOutput(y);
    b.markOutput(b.gather(t, idx, 0));
    ir::Graph built = b.finish();

    // Clear names the builder always fills in.
    ir::GraphParts parts{built.nodes(), built.values(), built.inputIds(),
                         built.outputIds()};
    for (ir::Node &n : parts.nodes)
        n.name.clear();
    parts.values[0].name.clear();
    parts.values[2].name.clear();
    return ir::makeGraph(std::move(parts));
}

TEST(GraphText, SignatureMatchesTextDefinition)
{
    auto check = [](const ir::Graph &g) {
        EXPECT_EQ(serialize::graphSignature(g), textSignature(g));
        ir::Graph canon = core::canonicalizeGraph(g);
        EXPECT_EQ(serialize::graphSignature(canon), textSignature(canon));
    };
    for (const std::string &model : models::evaluationModels()) {
        for (int batch : {1, 2}) {
            SCOPED_TRACE(model + " batch " + std::to_string(batch));
            check(models::buildModel(model, batch));
        }
        SCOPED_TRACE("tiny " + model);
        check(models::buildTinyVariant(model, 1));
    }
    SCOPED_TRACE("edge-case graph");
    ir::Graph edge = edgeCaseGraph();
    ASSERT_TRUE(edge.nodes()[0].name.empty());
    ASSERT_EQ(edge.value(0).shape.rank(), 0);
    check(edge);
    EXPECT_EQ(serialize::graphSignature(
                  serialize::parseGraph(serialize::serializeGraph(edge))),
              textSignature(edge));
}

/**
 * Pins serializeGraph's bytes, the canonical graphs and what the
 * pipeline did to reach them: for every evaluation model at batch 1,
 * the FNV-1a of the raw and canonical graph text, the canonical
 * signature, the sweep count and every pass's removed/folded/fused
 * totals.  `.graph` files older builds wrote into plan caches must
 * keep loading, which a self-consistent format change would break
 * without failing any round-trip test.  On a mismatch the actual
 * manifest is written to the build tree; diff the two.
 */
TEST(GraphText, ZooGraphsMatchRecordedDigests)
{
    std::string actual =
        "# <model> raw=<fnv1a64 of serializeGraph> canon=<same, "
        "canonicalized> sig=<graphSignature of canon> sweeps=<n> "
        "<pass>=<removed>/<folded>/<fused>..., checked by "
        "GraphText.ZooGraphsMatchRecordedDigests\n";
    for (const std::string &model : models::evaluationModels()) {
        ir::Graph raw = models::buildModel(model, 1);
        opt::PipelineStats stats;
        ir::Graph canon = core::canonicalizeGraph(raw, &stats);
        actual += model + " raw=" + fnv1aHex(serialize::serializeGraph(raw)) +
                  " canon=" + fnv1aHex(serialize::serializeGraph(canon)) +
                  " sig=" + serialize::graphSignature(canon) +
                  " sweeps=" + std::to_string(stats.iterations);
        for (const std::string &pass : opt::PassManager::passNames()) {
            const opt::PassStats t = stats.totalFor(pass);
            actual += " " + pass + "=" + std::to_string(t.nodesRemoved) +
                      "/" + std::to_string(t.nodesFolded) + "/" +
                      std::to_string(t.nodesFused);
        }
        actual += "\n";
    }

    const std::string manifest =
        std::string(SMARTMEM_SOURCE_DIR) + "/tests/graph_digests.txt";
    std::ifstream in(manifest);
    std::stringstream expected;
    expected << in.rdbuf();
    if (expected.str() == actual)
        return;
    const std::string written =
        std::string(SMARTMEM_BINARY_DIR) + "/graph_digests.actual.txt";
    std::ofstream(written) << actual;
    ADD_FAILURE() << "zoo graphs differ from the recorded digests: "
                  << "diff " << manifest << " " << written;
}

// ---------------------------------------------------------------------
// Malformed-input rejection table
// ---------------------------------------------------------------------

TEST(GraphSerialize, RejectsMalformedAndStructurallyInvalidText)
{
    const std::string good = serialize::serializeGraph(tinyGraph());
    ASSERT_NO_THROW(serialize::parseGraph(good));

    struct Case
    {
        const char *label;
        std::string text;
    };
    const std::vector<Case> bad = {
        {"empty input", ""},
        {"garbage header", "hello world\n"},
        {"version skew",
         replaced(good, "smartmem-graph v1", "smartmem-graph v999")},
        {"truncated mid-file", good.substr(0, good.size() / 2)},
        {"missing final newline", good.substr(0, good.size() - 1)},
        {"trailing garbage", good + "trailing 1\n"},
        {"value count overshoot", replaced(good, "values 4", "values 5")},
        {"node count undershoot", replaced(good, "nodes 4", "nodes 3")},
        {"non-dense value ids", replaced(good, "value 1 ", "value 0 ")},
        {"bad dtype", replaced(good, " f16 ", " f99 ")},
        {"bad shape", replaced(good, "[1,8]", "[1,x]")},
        {"shape-infer mismatch", replaced(good, "[1,8]", "[2,8]")},
        {"unknown op kind", replaced(good, "MatMul", "MatMulX")},
        {"dangling input id", replaced(good, "in 2 0 1", "in 2 0 9")},
        {"forward-reference cycle",
         replaced(good, "in 2 0 1", "in 2 0 3")},
        {"inputs list non-Input value",
         replaced(good, "inputs 1 0", "inputs 1 2")},
        {"outputs out of range",
         replaced(good, "outputs 1 3", "outputs 1 9")},
        // Input counts outside the op table's range.
        {"zero-input GlobalAvgPool",
         replaced(replaced(good, "Relu", "GlobalAvgPool"), "in 1 2",
                  "in 0")},
        {"zero-input Reshape",
         replaced(replaced(good, "Relu", "Reshape"), "in 1 2", "in 0")},
        {"one-input BatchNorm", replaced(good, "Relu", "BatchNorm")},
        {"two-input Relu", replaced(good, "in 1 2", "in 2 2 2")},
        {"five-input FusedAttention",
         replaced(replaced(good, "Relu", "FusedAttention"), "in 1 2",
                  "in 5 2 2 2 2 2")},
        // Same output shape as an all-zero pad, but shifted by one.
        {"negative Pad entries",
         replaced(replaced(good, "Relu", "Pad"), "in 1 2\nattrs 0",
                  "in 1 2\nattrs 1\nattr pads 4 0 0 1 -1")},
    };
    for (const Case &c : bad) {
        SCOPED_TRACE(c.label);
        EXPECT_THROW(serialize::parseGraph(c.text), FatalError);
    }
}

TEST(GraphSerialize, ParseErrorsCarryLineNumbers)
{
    const std::string good = serialize::serializeGraph(tinyGraph());
    try {
        serialize::parseGraph(replaced(good, " f16 ", " f99 "));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("parse error at line"),
                  std::string::npos)
            << err.what();
    }
}

TEST(GraphSerialize, StructuralErrorsJoinEveryDiagnostic)
{
    const std::string good = serialize::serializeGraph(tinyGraph());
    try {
        serialize::parseGraph(replaced(good, "in 2 0 1", "in 2 0 3"));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("invalid graph"),
                  std::string::npos)
            << err.what();
    }
}

// ---------------------------------------------------------------------
// validateGraphParts / makeGraph
// ---------------------------------------------------------------------

TEST(GraphValidate, CleanOnEveryBuilderGraph)
{
    EXPECT_TRUE(ir::validateGraph(tinyGraph()).empty());
    EXPECT_TRUE(
        ir::validateGraph(models::buildTinyVariant("ResNext", 1)).empty());
}

TEST(GraphValidate, ReportsStructuralProblemsWithoutThrowing)
{
    // A Relu consuming a value that does not exist, producing a value
    // with a broken producer back-link: several independent
    // diagnostics from one validation pass.
    ir::GraphParts parts;
    parts.values.push_back({0, "x", ir::Shape{1, 8}, ir::DType::F16, 0});
    parts.values.push_back({1, "y", ir::Shape{1, 8}, ir::DType::F16, -1});
    ir::Node in;
    in.id = 0;
    in.kind = ir::OpKind::Input;
    in.name = "x";
    in.output = 0;
    ir::Node relu;
    relu.id = 1;
    relu.kind = ir::OpKind::Relu;
    relu.name = "r";
    relu.inputs = {5};
    relu.output = 1;
    parts.nodes = {in, relu};
    parts.inputs = {0};
    parts.outputs = {1};

    auto diags = ir::validateGraphParts(parts);
    ASSERT_GE(diags.size(), 2u);
    EXPECT_THROW(ir::makeGraph(parts), FatalError);

    // Repairing both problems makes the same parts seal cleanly.
    parts.nodes[1].inputs = {0};
    parts.values[1].producer = 1;
    EXPECT_TRUE(ir::validateGraphParts(parts).empty());
    ir::Graph g = ir::makeGraph(parts);
    EXPECT_EQ(g.operatorCount(), 1);
}

// ---------------------------------------------------------------------
// Differential: imported graphs compile to byte-identical plans
// ---------------------------------------------------------------------

TEST(GraphSerialize, ImportedGraphsCompileToByteIdenticalPlans)
{
    auto dev = device::adreno740();
    for (const char *model : {"ResNext", "ViT"}) {
        SCOPED_TRACE(model);
        // Two independent sessions: one compiles the zoo builder's
        // graph by name, the other only ever sees the serialized
        // text.  Neither touches a disk cache.
        core::CompileSession by_name(dev, 1);
        by_name.setPlanCacheDir("");
        auto built = by_name.compileModel(model);

        core::CompileSession by_text(dev, 1);
        by_text.setPlanCacheDir("");
        ir::Graph imported = serialize::parseGraph(
            serialize::serializeGraph(models::buildModel(model, 1)));
        auto from_import = by_text.compileGraph(imported);

        EXPECT_EQ(serialize::serializePlan(*from_import),
                  serialize::serializePlan(*built));
        EXPECT_EQ(from_import->cacheKey, built->cacheKey);
    }

    // Staged pipelines key and compile identically from imports too.
    core::CompileSession by_name(dev, 1);
    by_name.setPlanCacheDir("");
    core::CompileSession by_text(dev, 1);
    by_text.setPlanCacheDir("");
    ir::Graph imported = serialize::parseGraph(
        serialize::serializeGraph(models::buildModel("CSwin", 1)));
    for (int stage = 0; stage <= 3; ++stage) {
        SCOPED_TRACE("stage " + std::to_string(stage));
        core::CompileOptions o;
        o.stage = stage;
        EXPECT_EQ(
            serialize::serializePlan(*by_text.compileGraph(imported, o)),
            serialize::serializePlan(*by_name.compileModel("CSwin", o)));
    }
}

// ---------------------------------------------------------------------
// File round-trip + FileGraphSource
// ---------------------------------------------------------------------

TEST(GraphFile, LoadGraphFileRoundTripsAndRejects)
{
    const std::string dir = scratchDir("graph-file");
    ir::Graph g = models::buildModel("ResNext", 1);
    const std::string path = dir + "/resnext.smgraph";
    {
        std::ofstream f(path, std::ios::binary);
        f << serialize::serializeGraph(g);
    }
    ir::Graph loaded = models::loadGraphFile(path);
    EXPECT_EQ(serialize::serializeGraph(loaded),
              serialize::serializeGraph(g));

    EXPECT_THROW(models::loadGraphFile(dir + "/missing.smgraph"),
                 FatalError);

    const std::string bad_path = dir + "/bad.smgraph";
    {
        std::ofstream f(bad_path, std::ios::binary);
        f << "smartmem-graph v1\nvalues x\n";
    }
    try {
        models::loadGraphFile(bad_path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        // The file name prefixes the parser's located message, which
        // is re-thrown as-is: exactly one "fatal at" wrapper, never a
        // stacked second one.
        const std::string msg = err.what();
        EXPECT_EQ(msg.find(bad_path), 0u) << msg;
        const auto first = msg.find("fatal at");
        ASSERT_NE(first, std::string::npos) << msg;
        EXPECT_EQ(msg.find("fatal at", first + 1), std::string::npos)
            << msg;
    }
}

TEST(GraphFile, FileGraphSourceIsContentAddressedAndFixedBatch)
{
    ir::Graph g = models::buildModel("ViT", 1);
    models::FileGraphSource src{ir::Graph(g)};
    EXPECT_EQ(src.name(), "smgraph:" + serialize::graphSignature(g));
    EXPECT_EQ(serialize::graphSignature(src.build(1)),
              serialize::graphSignature(g));
    // A serialized graph's shapes already encode its batch.
    EXPECT_THROW(src.build(2), FatalError);

    models::FileGraphSource named{ir::Graph(g), "models/vit.smgraph"};
    EXPECT_EQ(named.name(), "models/vit.smgraph");
}

} // namespace
} // namespace smartmem
