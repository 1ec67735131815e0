#include "core/compiler_registry.h"

#include <functional>
#include <utility>

#include "baselines/baselines.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "support/error.h"
#include "support/strings.h"

namespace smartmem::core {

CompilerResult
Compiler::compile(CompileSession &session, const std::string &model,
                  const CompileOptions &options) const
{
    return compileSource(session,
                         models::ModelRegistry::builtins().find(model),
                         options);
}

namespace {

/** The full SmartMem pipeline through the session's plan caches. */
class SmartMemCompiler : public Compiler
{
  public:
    std::string name() const override { return "smartmem"; }

    std::string description() const override
    {
        return "SmartMem full pipeline (LTE + layout selection + "
               "2.5D texture mapping + tuner)";
    }

    CompilerResult
    compileSource(CompileSession &session,
                  const models::GraphSource &source,
                  const CompileOptions &options) const override
    {
        return {true, "", session.compileSource(source, options)};
    }
};

/** One Figure-8 staged preset; overrides options.stage. */
class StageCompiler : public Compiler
{
  public:
    StageCompiler(int stage, std::string label)
        : stage_(stage), label_(std::move(label))
    {
    }

    std::string name() const override
    {
        return "smartmem-stage" + std::to_string(stage_);
    }

    std::string description() const override
    {
        return "Figure 8 stage " + std::to_string(stage_) + ": " +
               label_;
    }

    CompilerResult
    compileSource(CompileSession &session,
                  const models::GraphSource &source,
                  const CompileOptions &options) const override
    {
        CompileOptions staged = options;
        staged.stage = stage_;
        return {true, "", session.compileSource(source, staged)};
    }

  private:
    int stage_;
    std::string label_;
};

/** A baselines/ framework proxy; compiles outside the plan caches
 *  (see the file header of compiler_registry.h). */
class BaselineCompiler : public Compiler
{
  public:
    BaselineCompiler(std::string name, std::string description,
                     std::unique_ptr<baselines::Framework> framework)
        : name_(std::move(name)),
          description_(std::move(description)),
          framework_(std::move(framework))
    {
    }

    std::string name() const override { return name_; }

    std::string description() const override { return description_; }

    bool usesPlanCache() const override { return false; }

    CompilerResult
    compileSource(CompileSession &session,
                  const models::GraphSource &source,
                  const CompileOptions &options) const override
    {
        SM_REQUIRE(options.stage < 0,
                   "staged compilation is a smartmem-family option "
                   "(use smartmem-stage0..3)");
        ir::Graph g = source.build(options.batch);
        baselines::CompileResult r =
            framework_->compile(g, session.device());
        if (!r.supported)
            return {false, r.reason, nullptr};
        return {true, "",
                std::make_shared<const runtime::ExecutionPlan>(
                    std::move(r.plan))};
    }

  private:
    std::string name_;
    std::string description_;
    std::unique_ptr<baselines::Framework> framework_;
};

} // namespace

const CompilerRegistry &
CompilerRegistry::builtins()
{
    static const CompilerRegistry reg = [] {
        CompilerRegistry r;
        r.add(std::make_unique<SmartMemCompiler>());
        r.add(std::make_unique<StageCompiler>(
            0, "DNNFusion-style baseline (tuned)"));
        r.add(std::make_unique<StageCompiler>(
            1, "+ Layout Transformation Elimination"));
        r.add(std::make_unique<StageCompiler>(
            2, "+ reduction-dimension layout selection"));
        r.add(std::make_unique<StageCompiler>(
            3, "+ Other (2.5D texture mapping)"));
        r.add(std::make_unique<BaselineCompiler>(
            "mnn", "MNN proxy: fixed-pattern fusion, NC4HW4 texture "
                   "residency",
            baselines::makeMnnLike()));
        r.add(std::make_unique<BaselineCompiler>(
            "ncnn", "NCNN proxy: fixed-pattern fusion, packed "
                    "buffers, no GPU Transformer support",
            baselines::makeNcnnLike()));
        r.add(std::make_unique<BaselineCompiler>(
            "tflite", "TFLite proxy: minimal fusion, flat NHWC "
                      "buffers, no GPU Transformer support",
            baselines::makeTfliteLike()));
        r.add(std::make_unique<BaselineCompiler>(
            "tvm", "TVM proxy: rule-based fusion, ConvertLayout at "
                   "boundaries, buffers only",
            baselines::makeTvmLike()));
        r.add(std::make_unique<BaselineCompiler>(
            "dnnf", "DNNFusion proxy: extensive fusion, texture "
                    "residency, no LTE or layout search",
            baselines::makeDnnFusionLike()));
        r.add(std::make_unique<BaselineCompiler>(
            "inductor", "TorchInductor proxy (desktop): element-wise "
                        "fusion, flat layouts, buffers only",
            baselines::makeInductorLike()));
        return r;
    }();
    return reg;
}

void
CompilerRegistry::add(std::unique_ptr<Compiler> compiler)
{
    SM_REQUIRE(compiler != nullptr, "cannot register a null compiler");
    std::string name = compiler->name();
    SM_REQUIRE(!name.empty(),
               "compiler registry name must be non-empty");
    auto [it, inserted] =
        compilers_.emplace(std::move(name), std::move(compiler));
    if (!inserted)
        smFatal("compiler '" + it->first + "' is already registered");
}

bool
CompilerRegistry::contains(const std::string &name) const
{
    return compilers_.count(name) != 0;
}

const Compiler &
CompilerRegistry::find(const std::string &name) const
{
    auto it = compilers_.find(name);
    if (it == compilers_.end()) {
        smFatal("unknown compiler '" + name + "' (registered: " +
                joinStrings(names(), ", ") + ")");
    }
    return *it->second;
}

std::vector<std::string>
CompilerRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(compilers_.size());
    for (const auto &[name, compiler] : compilers_)
        out.push_back(name);
    return out;
}

} // namespace smartmem::core
