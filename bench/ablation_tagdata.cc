/**
 * @file
 * Ablation: the Section IV-C trade-off. Mapping all ways of a set to one
 * block partition rules out parallel tag-data access in L1, which would
 * have saved latency on hits but costs 4.7x read energy. This bench
 * quantifies both sides over a sweep of L1 hit rates.
 */

#include "bench_util.hh"
#include "energy/energy_params.hh"

using namespace ccache;

namespace bench::ablation_tagdata {

int
run(int, char **)
{
    bench::header("Ablation: serial vs parallel tag-data access in L1 "
                  "(Section IV-C)");

    energy::EnergyParams ep;
    double serial_read =
        ep.cacheOpEnergy(CacheLevel::L1, energy::CacheOp::Read);
    double parallel_read = serial_read * ep.parallelTagDataFactor;

    // Parallel access reads all 8 ways with the tag match; serial access
    // reads one way after it. The paper quotes 2.5% average speedup for
    // parallel access (SPLASH-2) against 4.7x read energy.
    std::printf("serial tag-data L1 read : %7.0f pJ\n", serial_read);
    std::printf("parallel tag-data read  : %7.0f pJ (%.1fx)\n",
                parallel_read, ep.parallelTagDataFactor);
    std::printf("paper performance cost of serial access: ~2.5%%\n\n");

    bench::ResultsWriter results("ablation_tagdata");
    results.metric("l1.serial_read_pj", serial_read);
    results.metric("l1.parallel_read_pj", parallel_read);
    results.metric("l1.parallel_factor", ep.parallelTagDataFactor);

    // One sweep point per hit rate; the model is closed-form, so this
    // mainly keeps the bench on the same runner as every other grid.
    const std::vector<double> hit_rates{0.3, 0.5, 0.7, 0.9, 0.95, 0.99};
    std::vector<std::pair<double, double>> pj(hit_rates.size());
    bench::SweepRunner sweep(&results);
    for (std::size_t i = 0; i < hit_rates.size(); ++i) {
        double hit = hit_rates[i];
        std::string key = "hit_" +
            std::to_string(static_cast<int>(hit * 100.0)) + "pct";
        sweep.add(key, [&, i, hit](bench::SweepContext &ctx) {
            // Misses pay the tag probe either way; the data-array read
            // burns the extra energy only when data is actually read.
            double serial = hit * serial_read + (1.0 - hit) * 40.0;
            double parallel = hit * parallel_read +
                (1.0 - hit) * parallel_read;  // reads ways regardless
            pj[i] = {serial, parallel};
            ctx.metric(ctx.key() + ".serial_pj_per_access", serial);
            ctx.metric(ctx.key() + ".parallel_pj_per_access", parallel);
        });
    }
    sweep.run();

    std::printf("%-12s %20s %20s\n", "L1 hit rate", "serial (pJ/access)",
                "parallel (pJ/access)");
    bench::rule();
    for (std::size_t i = 0; i < hit_rates.size(); ++i)
        std::printf("%10.0f%% %20.0f %20.0f\n", hit_rates[i] * 100.0,
                    pj[i].first, pj[i].second);

    bench::rule();
    bench::note("Parallel tag-data access burns the full multi-way read "
                "even on");
    bench::note("misses; the 2.5% latency win never recovers the 4.7x "
                "energy, so");
    bench::note("giving it up to get way-invariant operand locality is "
                "a clear win.");
    return bench::finish(results, sweep);
}

} // namespace bench::ablation_tagdata
