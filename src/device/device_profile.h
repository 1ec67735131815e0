/**
 * @file
 * Simulated device descriptions.
 *
 * The paper evaluates on three mobile SoCs (Snapdragon 8 Gen 2 /
 * Adreno 740, Snapdragon 835 / Adreno 540, Dimensity 700 / Mali-G57)
 * and one desktop GPU (Tesla V100).  We model each as a profile of
 * bandwidths, compute roof, cache geometry and capacity; the analytic
 * cost model (src/cost) consumes these numbers.
 * Roofline constants for Adreno 740 match Figure 12 (global 55 GB/s,
 * texture 511 GB/s, peak 2.0 TMACs/s).  Beyond the paper's four
 * platforms the catalog carries extrapolated tiers (Apple-M2-class
 * GPU, RTX 4090, A100, an NPU-like accelerator) for open-world
 * evaluation; device_registry.h exposes all of them by name and loads
 * additional profiles from .smdev files.
 *
 * A profile is also a *persistence format*: toString() writes a
 * versioned, line-oriented text form (the .smdev file format, see
 * docs/DEVICES.md) and parse() reads it back loss-free, the same
 * writer + tokenizing-parser idiom as serialize/plan_text.  Doubles
 * are written as shortest round-trip decimals, so
 *
 *   parse(p.toString()).toString() == p.toString()   (byte-identical)
 *
 * holds for every profile, while hand-written files can use plain
 * "2.0e12"-style numbers.
 */
#ifndef SMARTMEM_DEVICE_DEVICE_PROFILE_H
#define SMARTMEM_DEVICE_DEVICE_PROFILE_H

#include <cstdint>
#include <string>

namespace smartmem::device {

/** Version of the .smdev profile text grammar; parse() rejects every
 *  other version so stale files fail loudly instead of misreading. */
constexpr int kProfileFormatVersion = 1;

/** Static description of one (simulated) execution platform. */
struct DeviceProfile
{
    std::string name;

    /** Peak multiply-accumulate throughput (MACs per second). */
    double peakMacsPerSec = 0;

    /** 1D buffer (global) memory bandwidth, bytes/s. */
    double globalBwBytesPerSec = 0;

    /** 2.5D texture path bandwidth, bytes/s (0 if no texture units). */
    double textureBwBytesPerSec = 0;

    /** Whether the device exposes 2.5D texture memory. */
    bool hasTexture = false;

    /** Dedicated texture (read) cache size in bytes. */
    std::int64_t textureCacheBytes = 0;

    /** General L2 cache size in bytes. */
    std::int64_t l2CacheBytes = 0;

    /** Cache line size in bytes. */
    std::int64_t cacheLineBytes = 64;

    /** SIMD vector width in elements (texel width is 4). */
    int simdWidth = 4;

    /** Per-kernel dispatch overhead in seconds. */
    double kernelLaunchSec = 0;

    /** Total device memory available to one model, bytes. */
    std::int64_t memoryCapacityBytes = 0;

    /** Maximum texture extent per axis, in texels. */
    std::int64_t maxTextureExtent = 16384;

    /** Registers per thread before occupancy collapses (limits e.g.
     *  FlashAttention-style kernels on mobile; used by tuner). */
    int registersPerThread = 64;

    /**
     * Sustained element throughput of data-relayout kernels (explicit
     * Reshape/Transpose kernels and implicit repacking copies).  These
     * kernels are limited by per-element index computation and
     * uncoalesced access rather than raw bandwidth; the value is
     * calibrated from Table 1 of the paper (MNN spends ~0.4-0.8 ms per
     * ~300k-element transform on Adreno 740).
     */
    double relayoutElemsPerSec = 0;

    /**
     * Relative efficiency of convolution-family compute when inputs
     * stream from 1D buffers instead of 2.5D texture (Section 2.3
     * reports up to 3.5x conv latency reduction from texture memory).
     */
    double bufferConvPenalty = 0.45;

    // --- Optional CPU-execution calibration (exec/kernels_blocked) ---
    //
    // These three fields tune the blocked CPU backend's GEMM tiling
    // and are *optional* in the .smdev grammar: 0 means "unknown",
    // and exec::resolveTileParams() derives tile sizes from simdWidth
    // and l1CacheBytes instead.  toString() always emits them so
    // round-trips stay byte-identical.

    /** Per-core L1 data cache size in bytes (0 = unknown). */
    std::int64_t l1CacheBytes = 0;

    /** Measured-best GEMM row tile height (0 = derive). */
    int gemmRowTile = 0;

    /** Measured-best GEMM reduction block width (0 = derive). */
    int gemmKBlock = 0;

    /**
     * Versioned .smdev text form (one "key value" line per field
     * between a "smartmem-device v1" header and an "end" trailer).
     * Deterministic: equal profiles serialize byte-identically.
     */
    std::string toString() const;

    /**
     * Parse text produced by toString() (or hand-written in the same
     * grammar: fields in any order, '#' comments and blank lines
     * allowed).  Throws FatalError on a version mismatch, an unknown
     * or duplicated key, a missing field, a malformed or out-of-range
     * number, or a missing "end" trailer.
     */
    static DeviceProfile parse(const std::string &text);

    /**
     * Canonical, collision-free cache-key encoding of every field
     * that influences compilation -- key=value like
     * core::CompileOptions::fingerprint(), never a hash.  The display
     * `name` is deliberately excluded: plans are a function of the
     * profile's *values*, so a file-loaded profile that matches a
     * built-in's numbers shares its cached plans, while a copy with
     * one tweaked field can never alias them.
     */
    std::string fingerprint() const;
};

/** Snapdragon 8 Gen 2 / Adreno 740 (primary platform). */
DeviceProfile adreno740();

/** Snapdragon 835 / Adreno 540 (portability platform, 6 GB). */
DeviceProfile adreno540();

/** Dimensity 700 / Mali-G57 (portability platform, 4 GB). */
DeviceProfile maliG57();

/** Tesla V100 (desktop, Table 9; buffer memory only, FP32). */
DeviceProfile teslaV100();

/** Apple-M2-class integrated GPU: unified memory, texture units,
 *  large system-level cache (not a paper platform; extrapolated). */
DeviceProfile appleM2();

/** Desktop RTX 4090 tier: buffer memory only, huge compute roof and
 *  L2 (not a paper platform; extrapolated). */
DeviceProfile rtx4090();

/** Server A100 tier: HBM2e bandwidth, buffer memory only (not a
 *  paper platform; extrapolated). */
DeviceProfile a100();

/** NPU-like edge accelerator: dense MAC array behind a narrow shared
 *  LPDDR bus, no texture path, scratchpad instead of a deep cache
 *  hierarchy, and very slow data relayout -- the profile that makes
 *  layout-transformation elimination matter most. */
DeviceProfile edgeNpu();

} // namespace smartmem::device

#endif // SMARTMEM_DEVICE_DEVICE_PROFILE_H
