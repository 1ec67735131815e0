/**
 * @file
 * PlanCacheDir: persistent on-disk plan cache.
 *
 * CompileSession's in-memory cache dies with the process; this is its
 * cross-process counterpart.  Entries are keyed by the plan's
 * *canonical* cache key -- device fingerprint + canonicalized-graph
 * signature + pipeline fingerprint (see the CompileSession file
 * header) -- three files per entry:
 *
 *   <dir>/<sanitized-key-prefix>-<fnv64(key)>.plan     the plan text
 *   <dir>/<sanitized-key-prefix>-<fnv64(key)>.graph    the plan's
 *       canonicalized graph, serialize::serializeGraph() text
 *   <dir>/<sanitized-alias-prefix>-<fnv64(alias)>.alias
 *       maps a source-level alias key (device + source name + options
 *       fingerprint) to a canonical key, so warm loads resolve a
 *       model *name* to a plan without building any graph
 *
 * The adjacent .graph file is what frees load() from re-running a zoo
 * builder: the self-contained load(key) overload parses it and
 * validates the plan against it, so a cached plan for an imported
 * `.smgraph` model -- or a zoo model in a process that never links
 * the builders -- round-trips purely from disk.
 *
 * The sanitized prefix keeps entries greppable; the appended FNV-1a
 * hash of the *unsanitized* key keeps distinct keys from colliding
 * after sanitization.  Every load is validated: format version, the
 * embedded cache key (must equal the requested one), and the graph
 * signature all have to match, so truncated, corrupt, stale-format,
 * or hash-colliding files are treated as misses and recompiled --
 * never trusted.  Writes go through a temp file + rename, so a
 * concurrent reader (or a second process warming the same directory)
 * never observes a half-written entry.
 *
 * Eviction: with a byte cap configured (constructor argument,
 * SMARTMEM_PLAN_CACHE_MAX_BYTES, or the --plan-cache-max-bytes
 * flags), store() garbage-collects least-recently-used entries --
 * recency is the .plan mtime, which successful loads touch -- until
 * the directory fits.  `smartmem_cli cache-gc` runs the same
 * collection on demand and also prunes orphaned alias/graph files.
 *
 * Enabled via CompileSession::setPlanCacheDir(), the
 * SMARTMEM_PLAN_CACHE environment variable, or the --plan-cache flag
 * of the CLI and benches.
 */
#ifndef SMARTMEM_CORE_PLAN_CACHE_DIR_H
#define SMARTMEM_CORE_PLAN_CACHE_DIR_H

#include <cstdint>
#include <optional>
#include <string>

#include "ir/graph.h"
#include "runtime/plan.h"

namespace smartmem::core {

/** What one PlanCacheDir::gc() pass did. */
struct GcStats
{
    std::int64_t bytesBefore = 0; ///< entry bytes before collection
    std::int64_t bytesAfter = 0;  ///< entry bytes after collection
    int entriesEvicted = 0;       ///< .plan/.graph pairs removed (LRU)
    int orphansRemoved = 0;       ///< stale .alias/.graph files removed
};

/** Directory-backed plan store (see file header). */
class PlanCacheDir
{
  public:
    /**
     * The directory is created on first store(), not here.
     *
     * @param maxBytes  Byte cap enforced by store(): > 0 enables
     *                  auto-GC, 0 disables, and the default -1 reads
     *                  SMARTMEM_PLAN_CACHE_MAX_BYTES (unset, empty,
     *                  or non-positive: disabled).
     */
    explicit PlanCacheDir(std::string dir, std::int64_t maxBytes = -1);

    const std::string &dir() const { return dir_; }

    /** The configured byte cap; 0 when auto-GC is disabled. */
    std::int64_t maxBytes() const { return maxBytes_; }

    /** Path the plan entry for `cacheKey` lives at. */
    std::string entryPath(const std::string &cacheKey) const;

    /** Path of the serialized graph adjacent to entryPath(). */
    std::string graphPath(const std::string &cacheKey) const;

    /** Path the alias record for `aliasKey` lives at. */
    std::string aliasPath(const std::string &aliasKey) const;

    /** True when an entry file for `cacheKey` exists (it may still
     *  fail load()-time validation).  Lets callers skip preparing
     *  load() inputs -- e.g. graph canonicalization -- on a cold
     *  cache. */
    bool contains(const std::string &cacheKey) const;

    /**
     * Load and validate the entry for `cacheKey`, attaching `graph`
     * (taken by value: pass an rvalue and a hit costs no graph
     * copy).  Returns nullopt on a missing, corrupt, version-skewed,
     * wrong-key, or graph-mismatched entry (logged at warn level for
     * everything but a plain miss).
     */
    std::optional<runtime::ExecutionPlan>
    load(const std::string &cacheKey, ir::Graph graph) const;

    /**
     * Self-contained load: reads the adjacent .graph file, parses and
     * validates it (serialize::parseGraph runs the full structural
     * validation), and attaches it to the plan -- no builder, no
     * caller-supplied graph.  Same nullopt semantics as the two-arg
     * overload; an entry without a readable adjacent graph is a miss.
     */
    std::optional<runtime::ExecutionPlan>
    load(const std::string &cacheKey) const;

    /**
     * Persist `plan` under its cacheKey: the serialized plan plus the
     * adjacent serialized graph, each written atomically.  Returns
     * false (and warns) when the plan has no cache key or a write
     * fails; a failed store never corrupts an existing entry.  With a
     * byte cap configured, runs gc(maxBytes()) after a successful
     * write.
     */
    bool store(const runtime::ExecutionPlan &plan) const;

    /** Record that `aliasKey` resolves to canonical `cacheKey`. */
    bool storeAlias(const std::string &aliasKey,
                    const std::string &cacheKey) const;

    /** Resolve an alias written by storeAlias(); nullopt on a
     *  missing, corrupt, or wrong-alias record. */
    std::optional<std::string>
    loadAlias(const std::string &aliasKey) const;

    /**
     * Collect the directory down to `maxBytes` total entry bytes
     * (.plan + .graph + .alias), evicting least-recently-used entries
     * -- oldest .plan mtime first, path as the deterministic
     * tie-break -- together with their adjacent graphs.  Alias
     * records whose target entry no longer exists, and graph files
     * without a plan, are removed as orphans regardless of the cap.
     * maxBytes <= 0 collects orphans only.
     */
    GcStats gc(std::int64_t maxBytes) const;

  private:
    std::string basePath(const std::string &key) const;
    bool writeAtomic(const std::string &path,
                     const std::string &text) const;

    std::string dir_;
    std::int64_t maxBytes_ = 0;
};

} // namespace smartmem::core

#endif // SMARTMEM_CORE_PLAN_CACHE_DIR_H
