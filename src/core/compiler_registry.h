/**
 * @file
 * CompilerRegistry: every compiler under comparison behind one name.
 *
 * The paper evaluates SmartMem against six framework proxies plus its
 * own staged pipelines (Figure 8); before this façade each driver
 * hand-rolled its own switch over compileSmartMem / compileStage /
 * the baselines/ factories.  Here all of them implement one Compiler
 * interface keyed by name:
 *
 *   smartmem            full pipeline (core/smartmem_compiler.h)
 *   smartmem-stage0..3  the Figure-8 staged presets
 *   mnn ncnn tflite tvm dnnf inductor
 *                       the baselines/ framework proxies
 *
 * The smartmem family compiles through the caller's CompileSession,
 * so plans flow through the in-memory and on-disk plan caches under
 * the canonical (device, model, options) key.  Baseline proxies
 * compile against session.device() but bypass the plan caches: their
 * fusion/layout policies are not part of the cache-key domain, so
 * caching them there could alias smartmem plans.
 *
 * Lookup failures are FatalErrors that list the registered names,
 * mirroring device::DeviceRegistry.
 */
#ifndef SMARTMEM_CORE_COMPILER_REGISTRY_H
#define SMARTMEM_CORE_COMPILER_REGISTRY_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compile_session.h"
#include "runtime/plan.h"

namespace smartmem::core {

/** Outcome of Compiler::compile (baseline frameworks can decline a
 *  model; plan is null exactly when !supported). */
struct CompilerResult
{
    bool supported = true;
    std::string reason; ///< why unsupported (when !supported)
    std::shared_ptr<const runtime::ExecutionPlan> plan;
};

/** One named compiler under comparison. */
class Compiler
{
  public:
    virtual ~Compiler() = default;

    /** The registry key ("smartmem", "mnn", ...). */
    virtual std::string name() const = 0;

    /** One-line human description (shown by `smartmem_cli
     *  compilers`). */
    virtual std::string description() const = 0;

    /** Whether compile() flows through the session's plan caches
     *  (the smartmem family does; baseline proxies do not, so
     *  drivers can reject --plan-cache for them up front). */
    virtual bool usesPlanCache() const { return true; }

    /**
     * Compile one zoo model for `session.device()`: compileSource()
     * on its models::ModelRegistry::builtins() entry.  `options.batch`
     * selects the model variant; the smartmem family honors the rest
     * of the options and compiles through the session's plan caches
     * (staged compilers override `options.stage` with their preset).
     */
    CompilerResult compile(CompileSession &session,
                           const std::string &model,
                           const CompileOptions &options) const;

    /**
     * Compile a graph from any GraphSource -- a zoo registry entry or
     * a file-loaded `.smgraph` (`smartmem_cli --graph-file`).  The
     * smartmem family flows through session.compileSource(), so
     * identical graphs share cache entries regardless of where they
     * came from; baselines build the graph and compile it directly.
     */
    virtual CompilerResult
    compileSource(CompileSession &session,
                  const models::GraphSource &source,
                  const CompileOptions &options) const = 0;
};

/** Name-keyed catalog of compilers (see file header). */
class CompilerRegistry
{
  public:
    /** All built-in compilers (see file header).  Constructed once,
     *  immutable. */
    static const CompilerRegistry &builtins();

    /** An empty catalog; add() compilers to build a custom one. */
    CompilerRegistry() = default;

    /** Register a compiler under its name(); re-registering a name
     *  is a FatalError. */
    void add(std::unique_ptr<Compiler> compiler);

    bool contains(const std::string &name) const;

    /** Look up a compiler by name; FatalError naming every
     *  registered compiler on an unknown name. */
    const Compiler &find(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    std::map<std::string, std::unique_ptr<Compiler>> compilers_;
};

} // namespace smartmem::core

#endif // SMARTMEM_CORE_COMPILER_REGISTRY_H
