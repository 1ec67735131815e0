#include "core/tuner.h"

#include <algorithm>

#include "cost/kernel_cost.h"
#include "support/rng.h"

namespace smartmem::core {

namespace {

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

using Genome = std::vector<int>;

} // namespace

double
configEfficiency(std::size_t kernel_idx, int config,
                 const device::DeviceProfile &dev)
{
    // Register pressure caps the achievable ceiling on small register
    // files (e.g. FlashAttention-style configs don't fit on mobile).
    double ceiling = dev.registersPerThread >= 64 ? 1.0 : 0.97;
    std::uint64_t h = mix(kernel_idx + 1,
                          static_cast<std::uint64_t>(config) + 131);
    double frac = static_cast<double>(h % 10000) / 10000.0;
    return 0.80 + (ceiling - 0.80) * frac;
}

double
tunePlan(runtime::ExecutionPlan &plan, const device::DeviceProfile &dev,
         const TunerOptions &options)
{
    const std::size_t n = plan.kernels.size();
    if (n == 0)
        return 0.0;
    Rng rng(options.seed);

    std::vector<Genome> pop(
        static_cast<std::size_t>(options.populationSize));
    for (Genome &g : pop) {
        g.resize(n);
        for (int &c : g)
            c = static_cast<int>(rng.pickIndex(
                static_cast<std::size_t>(options.configSpace)));
    }

    // A configuration changes only its kernel's tunedEfficiency, which
    // enters one term of the cost model.  So the plan is costed once,
    // and a genome's fitness is costPlan's in-order sum of per-kernel
    // seconds re-rated at the genome's efficiencies: bit-identical to
    // re-costing the whole plan with the genome applied.
    const cost::PlanCost base = cost::costPlan(dev, plan);
    auto fitness = [&](const Genome &g) {
        double seconds = 0;
        for (std::size_t i = 0; i < n; ++i)
            seconds += base.perKernel[i].secondsAt(
                configEfficiency(i, g[i], dev));
        return seconds;
    };

    Genome best = pop[0];
    double best_fit = fitness(best);

    for (int gen = 0; gen < options.generations; ++gen) {
        // Evaluate and sort by fitness (lower is better).
        std::vector<std::pair<double, std::size_t>> ranked;
        for (std::size_t i = 0; i < pop.size(); ++i)
            ranked.emplace_back(fitness(pop[i]), i);
        std::sort(ranked.begin(), ranked.end());
        if (ranked[0].first < best_fit) {
            best_fit = ranked[0].first;
            best = pop[ranked[0].second];
        }
        // Elitism + crossover + mutation.
        std::vector<Genome> next;
        std::size_t elite = std::max<std::size_t>(pop.size() / 4, 1);
        for (std::size_t i = 0; i < elite; ++i)
            next.push_back(pop[ranked[i].second]);
        while (next.size() < pop.size()) {
            const Genome &a =
                pop[ranked[rng.pickIndex(elite)].second];
            const Genome &b =
                pop[ranked[rng.pickIndex(pop.size() / 2)].second];
            Genome child(n);
            for (std::size_t i = 0; i < n; ++i) {
                child[i] = rng.chance(0.5) ? a[i] : b[i];
                if (rng.chance(options.mutationRate)) {
                    child[i] = static_cast<int>(rng.pickIndex(
                        static_cast<std::size_t>(options.configSpace)));
                }
            }
            next.push_back(std::move(child));
        }
        pop = std::move(next);
    }
    for (std::size_t i = 0; i < n; ++i)
        plan.kernels[i].tunedEfficiency = configEfficiency(i, best[i], dev);
    return best_fit;
}

} // namespace smartmem::core
