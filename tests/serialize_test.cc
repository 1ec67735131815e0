/**
 * @file
 * Tests for the round-trip plan serialization layer and the printed-
 * form parsers it builds on (Shape::parse, Layout::parse, parseExpr,
 * IndexMap::parse), plus the persistent PlanCacheDir and its
 * CompileSession integration.  The golden-corpus test holds every
 * plan the evaluation zoo produces to the tentpole bar:
 * parse(serialize(plan)) reproduces byte-identical toString() *and*
 * byte-identical serialize() output.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "core/compile_session.h"
#include "core/compiler_registry.h"
#include "core/layout_select.h"
#include "core/plan_cache_dir.h"
#include "core/planner.h"
#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "device/device_registry.h"
#include "opt/pass.h"
#include "index/expr.h"
#include "index/index_map.h"
#include "ir/graph.h"
#include "ir/layout.h"
#include "ir/shape.h"
#include "models/models.h"
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

// ---------------------------------------------------------------------
// Shape::parse
// ---------------------------------------------------------------------

TEST(ShapeParse, RoundTripsPrintedForm)
{
    for (const ir::Shape &s :
         {ir::Shape{}, ir::Shape{7}, ir::Shape{1, 64, 56, 56},
          ir::Shape{2, 3, 4, 5, 6}}) {
        EXPECT_EQ(ir::Shape::parse(s.toString()), s) << s.toString();
    }
}

TEST(ShapeParse, RejectsMalformedText)
{
    for (const char *bad :
         {"", "[", "]", "1, 2", "[1, 2", "[1,, 2]", "[1, 2,]", "[a]",
          "[0]", "[-3]", "[1 2]", "[1, 2] "}) {
        EXPECT_THROW(ir::Shape::parse(bad), FatalError) << bad;
    }
}

// ---------------------------------------------------------------------
// Layout::parse
// ---------------------------------------------------------------------

TEST(LayoutParse, RoundTripsPrintedForm)
{
    const ir::Layout layouts[] = {
        ir::Layout(),
        ir::Layout::rowMajor(1),
        ir::Layout::rowMajor(4),
        ir::Layout::packed(4, 1),
        ir::Layout::withOrder({2, 0, 1}),
        ir::Layout::withOrder({0, 2, 3, 1}, 1),
        ir::Layout::texture(4, 0, 2, -1),
        ir::Layout::texture(4, 2, 3, 1),
        ir::Layout::texture(3, 1, 2, 2),
    };
    for (const ir::Layout &l : layouts) {
        ir::Layout parsed = ir::Layout::parse(l.toString());
        EXPECT_EQ(parsed, l) << l.toString();
        EXPECT_EQ(parsed.toString(), l.toString());
    }
}

TEST(LayoutParse, RejectsMalformedText)
{
    for (const char *bad :
         {"", "buf", "buf{", "buf{0,1", "box{0,1}", "buf{0,0}",
          "buf{0,2}", "buf{0,1|pack:4}", "buf{0,1|pack:-1}",
          "buf{0,1|pk:1}", "buf{a,b}", "tex{0,1}", "tex{y:0 0,1}",
          "tex{y:0 x:0 0,1}", "tex{y:0 x:4 0,1}", "tex{x:0 y:1 0,1}",
          "buf{0,1}x"}) {
        EXPECT_THROW(ir::Layout::parse(bad), FatalError) << bad;
    }
}

// ---------------------------------------------------------------------
// parseExpr / parseExprList
// ---------------------------------------------------------------------

TEST(ExprParse, RoundTripsPrintedForm)
{
    using namespace index;
    auto table = std::make_shared<const std::vector<std::int64_t>>(
        std::vector<std::int64_t>{3, 1, 4, 1, 5});
    const Expr exprs[] = {
        makeConst(0),
        makeConst(-7),
        makeVar(3),
        makeAdd(makeVar(0), makeConst(2)),
        makeMul(makeVar(1), makeConst(8)),
        makeMod(makeDiv(makeAdd(makeMul(makeVar(0), makeConst(8)),
                                makeVar(1)),
                        4),
                8),
        makeLookup(table, makeAdd(makeVar(0), makeVar(2))),
        makeAdd(makeLookup(table, makeVar(1)),
                makeMul(makeVar(0), makeConst(3))),
    };
    for (const Expr &e : exprs) {
        const std::string s = exprToString(e);
        EXPECT_EQ(exprToString(parseExpr(s)), s);
    }
}

TEST(ExprParse, EvaluatesIdenticallyAfterRoundTrip)
{
    using namespace index;
    Expr e = makeAdd(makeMul(makeMod(makeVar(0), 3), makeConst(5)),
                     makeDiv(makeVar(1), 2));
    Expr r = parseExpr(exprToString(e));
    for (std::int64_t a = 0; a < 7; ++a)
        for (std::int64_t b = 0; b < 7; ++b)
            EXPECT_EQ(evalExpr(r, {a, b}), evalExpr(e, {a, b}));
}

TEST(ExprParse, RejectsMalformedText)
{
    for (const char *bad :
         {"", "v", "v-1", "v4294967296", "(v0 + v1", "(v0 ? v1)",
          "(v0 / v1)",
          "(v0 / 0)", "(v0 % -2)", "lookup{}[v0]", "lookup{1,}[v0]",
          "lookup{1,2}", "lookup{1,2}[v0", "v0 v1", "(v0 + v1))",
          "()", "(v0 +)"}) {
        EXPECT_THROW(index::parseExpr(bad), FatalError) << bad;
    }
}

TEST(ExprParse, ListHandlesLookupCommas)
{
    auto exprs = index::parseExprList("[lookup{1,2,3}[v0], (v1 + 4)]");
    ASSERT_EQ(exprs.size(), 2u);
    EXPECT_EQ(index::exprToString(exprs[0]), "lookup{1,2,3}[v0]");
    EXPECT_EQ(index::exprToString(exprs[1]), "(v1 + 4)");
    EXPECT_TRUE(index::parseExprList("[]").empty());
    EXPECT_THROW(index::parseExprList("[v0,]"), FatalError);
    EXPECT_THROW(index::parseExprList("v0"), FatalError);
}

// ---------------------------------------------------------------------
// IndexMap::parse
// ---------------------------------------------------------------------

TEST(IndexMapParse, RoundTripsRealTransformMaps)
{
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape{1, 64, 8, 8});
    auto r = b.reshape(x, {1, 16, 4, 8, 8});
    auto t = b.transpose(r, {0, 2, 1, 3, 4});
    auto d = b.depthToSpace(x, 2);
    b.markOutput(t);
    b.markOutput(d);
    ir::Graph g = b.finish();

    std::vector<index::IndexMap> maps;
    for (const ir::Node &n : g.nodes()) {
        if (index::IndexMap::isEliminable(n.kind) &&
            n.kind != ir::OpKind::Input)
            maps.push_back(index::IndexMap::fromNode(g, n));
    }
    ASSERT_GE(maps.size(), 3u);
    // Also a composed + simplified map, the form plans actually carry.
    maps.push_back(maps[1].composedWith(maps[0]).simplified());

    for (const index::IndexMap &m : maps) {
        const std::string s = m.toString();
        index::IndexMap parsed = index::IndexMap::parse(s);
        EXPECT_EQ(parsed.toString(), s);
        EXPECT_EQ(parsed.outputShape(), m.outputShape());
        EXPECT_EQ(parsed.inputShape(), m.inputShape());
    }
}

TEST(IndexMapParse, RejectsMalformedText)
{
    for (const char *bad :
         {"", "[1, 2] : [v0]", "[1, 2] -> [2, 1]",
          "[1, 2] -> [2, 1] : [v0]",          // arity mismatch
          "[2, 3] -> [3, 2] : [v1, v2]",      // v2 outside output
          "[2] -> [2] : v0", "[2 -> [2] : [v0]"}) {
        EXPECT_THROW(index::IndexMap::parse(bad), FatalError) << bad;
    }
}

// ---------------------------------------------------------------------
// Plan serialization
// ---------------------------------------------------------------------

/** serialize -> parse -> both byte-identity bars. */
void
expectRoundTrips(const runtime::ExecutionPlan &plan)
{
    const std::string text = serialize::serializePlan(plan);
    runtime::ExecutionPlan reparsed =
        serialize::parsePlan(text, plan.graph);
    EXPECT_EQ(reparsed.toString(), plan.toString());
    EXPECT_EQ(serialize::serializePlan(reparsed), text);
    EXPECT_EQ(reparsed.cacheKey, plan.cacheKey);
    EXPECT_EQ(reparsed.compilerName, plan.compilerName);
    ASSERT_EQ(reparsed.kernels.size(), plan.kernels.size());
    for (std::size_t i = 0; i < plan.kernels.size(); ++i) {
        // toString drops these; assert them field-wise.
        EXPECT_EQ(reparsed.kernels[i].tunedEfficiency,
                  plan.kernels[i].tunedEfficiency);
        EXPECT_EQ(reparsed.kernels[i].fusedNodes,
                  plan.kernels[i].fusedNodes);
        EXPECT_EQ(reparsed.kernels[i].streamingAttention,
                  plan.kernels[i].streamingAttention);
    }
}

TEST(PlanSerialize, GoldenCorpusRoundTripsEveryZooPlan)
{
    auto dev = device::adreno740();
    core::CompileSession session(dev, 0);
    session.setPlanCacheDir(""); // isolate from SMARTMEM_PLAN_CACHE
    for (const std::string &model : models::evaluationModels()) {
        SCOPED_TRACE(model);
        expectRoundTrips(*session.compileModel(model));
    }
}

TEST(PlanSerialize, RoundTripsBatchStageAndBaselinePlans)
{
    auto dev = device::adreno740();
    core::CompileSession session(dev, 1);
    session.setPlanCacheDir("");

    core::CompileOptions batched;
    batched.batch = 4;
    expectRoundTrips(*session.compileModel("Swin", batched));

    for (int stage = 0; stage <= 3; ++stage) {
        SCOPED_TRACE(stage);
        core::CompileOptions staged;
        staged.stage = stage;
        expectRoundTrips(*session.compileModel("ResNext", staged));
    }

    ir::Graph g = models::buildModel("ViT", 1);
    std::vector<std::unique_ptr<baselines::Framework>> frameworks;
    frameworks.push_back(baselines::makeMnnLike());
    frameworks.push_back(baselines::makeTvmLike());
    frameworks.push_back(baselines::makeDnnFusionLike());
    for (const auto &fw : frameworks) {
        auto r = fw->compile(g, dev);
        if (r.supported) {
            SCOPED_TRACE(fw->name());
            expectRoundTrips(r.plan);
        }
    }
}

TEST(PlanSerialize, RejectsMalformedAndMismatchedInput)
{
    auto dev = device::adreno740();
    core::CompileSession session(dev, 1);
    session.setPlanCacheDir("");
    auto plan = session.compileModel("ResNext");
    const std::string text = serialize::serializePlan(*plan);

    // Version / header skew.
    EXPECT_THROW(serialize::parsePlan("", plan->graph), FatalError);
    EXPECT_THROW(
        serialize::parsePlan("smartmem-plan v999\n" +
                                 text.substr(text.find('\n') + 1),
                             plan->graph),
        FatalError);

    // Truncation at every structural boundary.
    EXPECT_THROW(
        serialize::parsePlan(text.substr(0, text.size() / 2),
                             plan->graph),
        FatalError);
    EXPECT_THROW(
        serialize::parsePlan(text.substr(0, text.rfind("end")),
                             plan->graph),
        FatalError);

    // Trailing garbage.
    EXPECT_THROW(serialize::parsePlan(text + "extra\n", plan->graph),
                 FatalError);

    // A corrupted field deep in the body.
    std::string bad = text;
    auto pos = bad.find("outlayout ");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 13, "outlayout XXX");
    EXPECT_THROW(serialize::parsePlan(bad, plan->graph), FatalError);

    // The right text against the wrong graph.
    ir::Graph other = models::buildModel("ViT", 1);
    EXPECT_THROW(serialize::parsePlan(text, other), FatalError);
}

TEST(PlanSerialize, GraphSignatureSeparatesModelsAndBatches)
{
    const std::string a =
        serialize::graphSignature(models::buildModel("ResNext", 1));
    const std::string b =
        serialize::graphSignature(models::buildModel("ResNext", 2));
    const std::string c =
        serialize::graphSignature(models::buildModel("ViT", 1));
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, serialize::graphSignature(
                     models::buildModel("ResNext", 1)));
}

/**
 * The pass-pipeline plan-cache contract (docs/PASSES.md): graphs the
 * pipeline does not rewrite keep a byte-stable graphSignature (so
 * pre-existing cache entries stay valid), graphs it does rewrite get
 * a new one (so stale entries cannot be served), and canonicalization
 * is idempotent -- re-canonicalizing a canonical graph is a no-op
 * with an identical signature.
 */
TEST(PlanSerialize, GraphSignatureStableUnderCanonicalization)
{
    int unchanged = 0;
    int rewritten = 0;
    for (const std::string &name : models::evaluationModels()) {
        ir::Graph g = models::buildModel(name);
        opt::PipelineStats stats;
        ir::Graph canon = core::canonicalizeGraph(g, &stats);
        if (stats.changed()) {
            ++rewritten;
            EXPECT_NE(serialize::graphSignature(g),
                      serialize::graphSignature(canon))
                << name;
        } else {
            ++unchanged;
            EXPECT_EQ(serialize::graphSignature(g),
                      serialize::graphSignature(canon))
                << name;
        }
        opt::PipelineStats again;
        ir::Graph canon2 = core::canonicalizeGraph(canon, &again);
        EXPECT_FALSE(again.changed()) << name;
        EXPECT_EQ(serialize::graphSignature(canon),
                  serialize::graphSignature(canon2))
            << name;
    }
    // The zoo must exercise both directions of the contract.
    EXPECT_GT(unchanged, 0);
    EXPECT_GT(rewritten, 0);
}

/**
 * The standing byte-identity gate for compiled plans.
 * tests/plan_digests.txt holds the FNV-1a digest of serializePlan()
 * for every zoo model compiled at stages 0 and 3 on four devices and
 * by the six baseline proxies on adreno740.  A change to the compile
 * path that is not meant to change plans must leave every line
 * as recorded.  On a mismatch the actual manifest is written into the
 * build tree; a change that alters plans on purpose records it over
 * the committed one and says why.
 */
TEST(PlanSerialize, ZooPlansMatchRecordedDigests)
{
    std::string actual =
        "# <device> <compiler> <model> <fnv1a64 of serializePlan>, "
        "checked by PlanSerialize.ZooPlansMatchRecordedDigests\n";
    auto record = [&](const std::string &device,
                      const std::string &compiler) {
        core::CompileSession session(
            device::DeviceRegistry::builtins().find(device), 0);
        session.setPlanCacheDir("");
        const core::Compiler &c =
            core::CompilerRegistry::builtins().find(compiler);
        for (const std::string &model : models::allModels()) {
            core::CompilerResult r =
                c.compile(session, model, core::CompileOptions());
            actual += device + " " + compiler + " " + model + " " +
                      (r.supported
                           ? fnv1aHex(serialize::serializePlan(*r.plan))
                           : "unsupported") +
                      "\n";
        }
    };
    for (const char *device : {"adreno740", "mali-g57", "v100", "apple-m2"})
        for (const char *stage : {"smartmem-stage0", "smartmem-stage3"})
            record(device, stage);
    for (const char *baseline :
         {"mnn", "ncnn", "tflite", "tvm", "dnnf", "inductor"})
        record("adreno740", baseline);

    const std::string manifest =
        std::string(SMARTMEM_SOURCE_DIR) + "/tests/plan_digests.txt";
    std::ifstream in(manifest);
    std::stringstream expected;
    expected << in.rdbuf();
    if (expected.str() == actual)
        return;
    const std::string written =
        std::string(SMARTMEM_BINARY_DIR) + "/plan_digests.actual.txt";
    std::ofstream(written) << actual;
    ADD_FAILURE() << "compiled plans differ from the recorded digests: "
                  << "diff " << manifest << " " << written;
}

// ---------------------------------------------------------------------
// PlanCacheDir
// ---------------------------------------------------------------------

TEST(PlanCacheDir, StoresAndReloadsByteIdenticalPlans)
{
    const std::string dir = scratchDir("store-load");
    auto dev = device::adreno740();
    core::CompileSession session(dev, 1);
    session.setPlanCacheDir("");
    auto plan = session.compileModel("ResNext");
    ASSERT_FALSE(plan->cacheKey.empty());

    core::PlanCacheDir cache(dir);
    EXPECT_TRUE(cache.store(*plan));
    EXPECT_TRUE(fs::exists(cache.entryPath(plan->cacheKey)));

    auto loaded = cache.load(plan->cacheKey, plan->graph);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serialize::serializePlan(*loaded),
              serialize::serializePlan(*plan));

    // Unknown key: a plain miss.
    EXPECT_FALSE(cache.load("no-such-key", plan->graph).has_value());
}

TEST(PlanCacheDir, RefusesKeylessPlansAndIgnoresCorruptEntries)
{
    const std::string dir = scratchDir("corrupt");
    auto dev = device::adreno740();
    core::CompileSession session(dev, 1);
    session.setPlanCacheDir("");
    auto plan = session.compileModel("ResNext");

    core::PlanCacheDir cache(dir);
    runtime::ExecutionPlan keyless = *plan;
    keyless.cacheKey.clear();
    EXPECT_FALSE(cache.store(keyless));

    ASSERT_TRUE(cache.store(*plan));
    const std::string path = cache.entryPath(plan->cacheKey);

    // Truncated entry -> miss, not a crash.
    {
        std::string text = serialize::serializePlan(*plan);
        std::ofstream f(path, std::ios::trunc);
        f << text.substr(0, text.size() / 3);
    }
    EXPECT_FALSE(cache.load(plan->cacheKey, plan->graph).has_value());

    // Entry whose embedded key differs (filename collision) -> miss.
    {
        runtime::ExecutionPlan renamed = *plan;
        renamed.cacheKey = "some-other-key";
        std::ofstream f(path, std::ios::trunc);
        f << serialize::serializePlan(renamed);
    }
    EXPECT_FALSE(cache.load(plan->cacheKey, plan->graph).has_value());

    // Wrong graph for the right entry -> miss.
    ASSERT_TRUE(cache.store(*plan));
    ir::Graph other = models::buildModel("ViT", 1);
    EXPECT_FALSE(cache.load(plan->cacheKey, other).has_value());
}

/**
 * Version skew across the pass-pipeline upgrade: cache directories
 * written before the full pipeline existed hold plans whose graphs
 * were canonicalized with identity-elim + dce only.  Entries for
 * graphs the new pipeline leaves alone must still validate (same
 * signature, served as hits); entries for graphs it now rewrites
 * must be treated as graceful misses -- never served against the
 * differently-canonicalized graph.
 */
TEST(PlanCacheDir, PrePipelineEntriesValidateOrMissGracefully)
{
    const std::string dir = scratchDir("version-skew");
    auto dev = device::adreno740();
    core::PlanCacheDir cache(dir);

    auto oldCanonicalize = [](const ir::Graph &g) {
        return opt::DeadCodeElim().run(opt::IdentityElim().run(g));
    };
    auto stagePlan = [&](const ir::Graph &g, const std::string &key) {
        core::FusionPolicy p;
        p.fuseTransformChains = true;
        p.eliminateTransforms = true;
        auto plan = core::planGraph(g, p);
        core::assignLayouts(plan, core::LayoutStrategy::SmartSelect,
                            dev);
        plan.cacheKey = key;
        return plan;
    };

    // ConvNext: untouched by the new pipeline (no foldable convs, no
    // attention chains), so the old-style entry's signature is
    // byte-identical and the entry still hits.
    {
        ir::Graph g = models::buildModel("ConvNext");
        ir::Graph old_canon = oldCanonicalize(g);
        ir::Graph new_canon = core::canonicalizeGraph(g);
        ASSERT_EQ(serialize::graphSignature(old_canon),
                  serialize::graphSignature(new_canon));
        auto plan = stagePlan(old_canon, "skew-convnext");
        ASSERT_TRUE(cache.store(plan));
        auto loaded = cache.load("skew-convnext", new_canon);
        ASSERT_TRUE(loaded.has_value());
        EXPECT_EQ(serialize::serializePlan(*loaded),
                  serialize::serializePlan(plan));
    }

    // ResNext: conv+batchnorm folding rewrites it, so the old entry
    // no longer matches the canonical graph -- a miss, not a crash,
    // and not a stale plan served against the wrong graph.
    {
        ir::Graph g = models::buildModel("ResNext");
        ir::Graph old_canon = oldCanonicalize(g);
        ir::Graph new_canon = core::canonicalizeGraph(g);
        ASSERT_NE(serialize::graphSignature(old_canon),
                  serialize::graphSignature(new_canon));
        auto plan = stagePlan(old_canon, "skew-resnext");
        ASSERT_TRUE(cache.store(plan));
        EXPECT_FALSE(cache.load("skew-resnext", new_canon).has_value());
        // A pre-upgrade process (old canonical graph) still hits.
        EXPECT_TRUE(cache.load("skew-resnext", old_canon).has_value());
    }
}

TEST(PlanCacheDir, EntryPathsAreSanitizedAndCollisionFree)
{
    core::PlanCacheDir cache("cachedir");
    const std::string key_a = "dev=a;x=1|model=Swin|v1;batch=1";
    const std::string key_b = "dev=a;x=1|model=Swin|v1;batch=2";
    const std::string path_a = cache.entryPath(key_a);
    EXPECT_NE(path_a, cache.entryPath(key_b));
    // Only shell-safe characters after the directory prefix.
    for (char c : path_a.substr(std::string("cachedir/").size())) {
        EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_')
            << "unsafe char '" << c << "' in " << path_a;
    }
}

TEST(PlanCacheDir, SelfContainedLoadNeedsNoCallerGraph)
{
    const std::string dir = scratchDir("self-contained");
    auto dev = device::adreno740();
    core::CompileSession session(dev, 1);
    session.setPlanCacheDir("");
    auto plan = session.compileModel("ResNext");

    core::PlanCacheDir cache(dir);
    ASSERT_TRUE(cache.store(*plan));
    ASSERT_TRUE(fs::exists(cache.graphPath(plan->cacheKey)));

    // The one-arg load parses the adjacent .graph -- no builder, no
    // caller-supplied graph -- and still validates everything.
    auto loaded = cache.load(plan->cacheKey);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serialize::serializePlan(*loaded),
              serialize::serializePlan(*plan));
    EXPECT_EQ(serialize::graphSignature(loaded->graph),
              serialize::graphSignature(plan->graph));

    // Without the adjacent graph it is a miss; the two-arg overload
    // still serves the entry from a caller-supplied graph.
    fs::remove(cache.graphPath(plan->cacheKey));
    EXPECT_FALSE(cache.load(plan->cacheKey).has_value());
    EXPECT_TRUE(cache.load(plan->cacheKey, plan->graph).has_value());

    // A corrupt adjacent graph is a miss too, not a crash.
    {
        std::ofstream f(cache.graphPath(plan->cacheKey));
        f << "smartmem-graph v1\nvalues x\n";
    }
    EXPECT_FALSE(cache.load(plan->cacheKey).has_value());
}

TEST(PlanCacheDir, AliasRecordsResolveAndValidate)
{
    const std::string dir = scratchDir("alias");
    core::PlanCacheDir cache(dir);

    const std::string alias = "dev|source=Swin|v1;batch=1";
    const std::string target = "dev|graph=abc123|p1;stage=-1";
    EXPECT_TRUE(cache.storeAlias(alias, target));
    auto resolved = cache.loadAlias(alias);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, target);

    // Missing and corrupt records are nullopt, never a crash.
    EXPECT_FALSE(cache.loadAlias("no-such-alias").has_value());
    const std::string other = "dev|source=ViT|v1;batch=1";
    {
        fs::create_directories(dir);
        std::ofstream f(cache.aliasPath(other));
        f << "garbage\n";
    }
    EXPECT_FALSE(cache.loadAlias(other).has_value());

    // A record whose embedded alias differs from the requested one
    // (filename collision after sanitization) is rejected.
    {
        std::ofstream f(cache.aliasPath(other), std::ios::trunc);
        std::ifstream in(cache.aliasPath(alias));
        f << in.rdbuf();
    }
    EXPECT_FALSE(cache.loadAlias(other).has_value());
}

TEST(PlanCacheDir, ByteCapComesFromCtorOrEnvironment)
{
    const std::string dir = scratchDir("byte-cap");
    EXPECT_EQ(core::PlanCacheDir(dir).maxBytes(), 0);
    EXPECT_EQ(core::PlanCacheDir(dir, 4096).maxBytes(), 4096);
    EXPECT_EQ(core::PlanCacheDir(dir, 0).maxBytes(), 0);

    ::setenv("SMARTMEM_PLAN_CACHE_MAX_BYTES", "8192", 1);
    EXPECT_EQ(core::PlanCacheDir(dir).maxBytes(), 8192);
    // An explicit cap always wins over the environment.
    EXPECT_EQ(core::PlanCacheDir(dir, 123).maxBytes(), 123);
    ::setenv("SMARTMEM_PLAN_CACHE_MAX_BYTES", "not-a-number", 1);
    EXPECT_EQ(core::PlanCacheDir(dir).maxBytes(), 0);
    ::unsetenv("SMARTMEM_PLAN_CACHE_MAX_BYTES");
}

TEST(PlanCacheDir, GcEvictsLruEntriesAndRemovesOrphans)
{
    const std::string dir = scratchDir("gc-lru");
    auto dev = device::adreno740();
    core::CompileSession session(dev, 1);
    session.setPlanCacheDir("");
    auto base = session.compileModel("ResNext");

    core::PlanCacheDir cache(dir);
    for (const char *key : {"gc-a", "gc-b", "gc-c"}) {
        runtime::ExecutionPlan p = *base;
        p.cacheKey = key;
        ASSERT_TRUE(cache.store(p));
    }
    ASSERT_TRUE(cache.storeAlias("alias-old", "gc-a"));
    ASSERT_TRUE(cache.storeAlias("alias-live", "gc-c"));
    // A stray graph with no plan: an orphan regardless of the cap.
    {
        std::ofstream f(dir + "/stray-deadbeef.graph");
        f << "leftover\n";
    }

    // Deterministic recency, oldest first.
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(cache.entryPath("gc-a"),
                        now - std::chrono::hours(3));
    fs::last_write_time(cache.entryPath("gc-b"),
                        now - std::chrono::hours(2));
    fs::last_write_time(cache.entryPath("gc-c"),
                        now - std::chrono::hours(1));

    // Budget for exactly the newest entry plus the alias records still
    // present while the eviction loop runs.
    const auto keep = static_cast<std::int64_t>(
        fs::file_size(cache.entryPath("gc-c")) +
        fs::file_size(cache.graphPath("gc-c")) +
        fs::file_size(cache.aliasPath("alias-live")) +
        fs::file_size(cache.aliasPath("alias-old")));
    auto st = cache.gc(keep);
    EXPECT_EQ(st.entriesEvicted, 2);
    EXPECT_FALSE(fs::exists(cache.entryPath("gc-a")));
    EXPECT_FALSE(fs::exists(cache.entryPath("gc-b")));
    EXPECT_FALSE(fs::exists(cache.graphPath("gc-a")));
    EXPECT_TRUE(fs::exists(cache.entryPath("gc-c")));
    EXPECT_TRUE(fs::exists(cache.graphPath("gc-c")));
    // The stray graph and the alias whose target was evicted are gone.
    EXPECT_EQ(st.orphansRemoved, 2);
    EXPECT_FALSE(fs::exists(dir + "/stray-deadbeef.graph"));
    EXPECT_FALSE(fs::exists(cache.aliasPath("alias-old")));
    EXPECT_TRUE(fs::exists(cache.aliasPath("alias-live")));
    EXPECT_GT(st.bytesBefore, st.bytesAfter);
    EXPECT_LE(st.bytesAfter, keep);

    // The surviving entry still loads, and a cap of <= 0 never evicts
    // live entries.
    EXPECT_TRUE(cache.load("gc-c", base->graph).has_value());
    auto noop = cache.gc(0);
    EXPECT_EQ(noop.entriesEvicted, 0);
    EXPECT_TRUE(fs::exists(cache.entryPath("gc-c")));
}

TEST(PlanCacheDir, LoadRefreshesRecencyAndStoreAutoGcs)
{
    const std::string dir = scratchDir("auto-gc");
    auto dev = device::adreno740();
    core::CompileSession session(dev, 1);
    session.setPlanCacheDir("");
    auto base = session.compileModel("ResNext");

    // Successful loads touch the .plan mtime, so recently-used
    // entries survive LRU eviction.
    core::PlanCacheDir uncapped(dir);
    runtime::ExecutionPlan a = *base;
    a.cacheKey = "auto-a";
    ASSERT_TRUE(uncapped.store(a));
    const auto stale =
        fs::file_time_type::clock::now() - std::chrono::hours(3);
    fs::last_write_time(uncapped.entryPath("auto-a"), stale);
    ASSERT_TRUE(uncapped.load("auto-a", base->graph).has_value());
    EXPECT_GT(fs::last_write_time(uncapped.entryPath("auto-a")), stale);

    // A capped store garbage-collects down to the cap on its own:
    // room for one entry (plus slack), not two.
    const auto pair = static_cast<std::int64_t>(
        fs::file_size(uncapped.entryPath("auto-a")) +
        fs::file_size(uncapped.graphPath("auto-a")));
    core::PlanCacheDir capped(dir, pair + pair / 2);
    fs::last_write_time(capped.entryPath("auto-a"), stale);
    runtime::ExecutionPlan b = *base;
    b.cacheKey = "auto-b";
    ASSERT_TRUE(capped.store(b));
    EXPECT_FALSE(fs::exists(capped.entryPath("auto-a")));
    EXPECT_TRUE(fs::exists(capped.entryPath("auto-b")));
    EXPECT_TRUE(capped.load("auto-b", base->graph).has_value());
}

// ---------------------------------------------------------------------
// CompileSession + PlanCacheDir integration
// ---------------------------------------------------------------------

TEST(SessionDiskCache, WarmSessionServesByteIdenticalPlansFromDisk)
{
    const std::string dir = scratchDir("session-warm");
    auto dev = device::adreno740();
    // BiFormer matters here: identity-elim/DCE rewrite its graph, so
    // it regression-tests that disk entries are validated against the
    // canonicalized graph (what plans carry), not raw builder output.
    const std::vector<std::string> zoo = {"Swin", "ViT", "ResNext",
                                          "BiFormer"};

    core::CompileSession cold(dev, 1);
    cold.setPlanCacheDir(dir);
    auto cold_plans = cold.compileZoo(zoo);
    auto cold_stats = cold.stats();
    EXPECT_EQ(cold_stats.diskHits, 0);
    EXPECT_EQ(cold_stats.diskMisses,
              static_cast<std::int64_t>(zoo.size()));

    // A fresh session (fresh process stand-in): all disk hits, plans
    // byte-identical at serializer granularity.
    core::CompileSession warm(dev, 1);
    warm.setPlanCacheDir(dir);
    auto warm_plans = warm.compileZoo(zoo);
    auto warm_stats = warm.stats();
    EXPECT_EQ(warm_stats.diskHits,
              static_cast<std::int64_t>(zoo.size()));
    EXPECT_EQ(warm_stats.diskMisses, 0);
    for (std::size_t i = 0; i < zoo.size(); ++i) {
        EXPECT_EQ(serialize::serializePlan(*warm_plans[i]),
                  serialize::serializePlan(*cold_plans[i]))
            << zoo[i];
    }

    // Distinct options key separately on disk too.
    core::CompileOptions batched;
    batched.batch = 2;
    warm.compileModel("Swin", batched);
    EXPECT_EQ(warm.stats().diskMisses, 1);
}

TEST(SessionDiskCache, CorruptEntryIsRecompiledAndRewritten)
{
    const std::string dir = scratchDir("session-corrupt");
    auto dev = device::adreno740();

    core::CompileSession cold(dev, 1);
    cold.setPlanCacheDir(dir);
    auto plan = cold.compileModel("ResNext");
    const std::string path =
        core::PlanCacheDir(dir).entryPath(plan->cacheKey);
    ASSERT_TRUE(fs::exists(path));
    {
        std::ofstream f(path, std::ios::trunc);
        f << "smartmem-plan v1\ngarbage\n";
    }

    core::CompileSession repair(dev, 1);
    repair.setPlanCacheDir(dir);
    auto recompiled = repair.compileModel("ResNext");
    EXPECT_EQ(repair.stats().diskMisses, 1);
    EXPECT_EQ(serialize::serializePlan(*recompiled),
              serialize::serializePlan(*plan));

    // The bad entry was replaced by a good one.
    core::CompileSession warm(dev, 1);
    warm.setPlanCacheDir(dir);
    warm.compileModel("ResNext");
    EXPECT_EQ(warm.stats().diskHits, 1);
}

} // namespace
} // namespace smartmem
