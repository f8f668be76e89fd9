/**
 * @file
 * Ablation: multi-core Compute Cache scaling. Each core streams in-place
 * copies over its own NUCA slice (pages first-touch to the local slice);
 * aggregate throughput should scale with core count because every slice
 * computes independently — the "caches as very large vector units"
 * claim at chip scope.
 */

#include "apps/dbbitmap.hh"
#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

namespace bench::ablation_multicore {

namespace {

double
runCores(unsigned cores)
{
    System sys;
    const std::size_t n = 16384;

    std::vector<std::uint8_t> data(n, 0x3d);
    double total_blocks = 0.0;
    Cycles makespan = 0;

    for (unsigned c = 0; c < cores; ++c) {
        // Per-core working set: first touch binds it to the local slice.
        Addr src = 0x10000000 + c * 0x1000000;
        Addr dst = src + 0x100000;
        sys.load(src, data.data(), n);
        sys.warm(CacheLevel::L3, c, src, n);
        sys.warm(CacheLevel::L3, c, dst, n);
    }
    sys.resetMetrics();
    sys.cc().mutableParams().forceLevel = CacheLevel::L3;

    for (unsigned c = 0; c < cores; ++c) {
        Addr src = 0x10000000 + c * 0x1000000;
        Addr dst = src + 0x100000;
        auto r = sys.ccEngine().copy(c, src, dst, n);
        total_blocks += static_cast<double>(r.blockOps);
        // Cores run concurrently on disjoint slices; the makespan is the
        // slowest core (each slice has its own command bus + partitions).
        makespan = std::max(makespan, r.cycles);
    }

    return total_blocks / cyclesToSeconds(makespan) / 1e9;
}

} // namespace

int
run(int, char **)
{
    bench::header("Ablation: multi-core CC scaling (16 KB in-place copy "
                  "per core, local slices)");

    std::printf("%8s %22s %10s\n", "cores", "aggregate Gblk-ops/s",
                "scaling");
    bench::rule();

    bench::ResultsWriter results("ablation_multicore");
    const unsigned core_counts[] = {1u, 2u, 4u, 8u};

    // One sweep point per core count, for both studies. Scaling ratios
    // are computed after the barrier from the 1-core points.
    double copy_thpt[4] = {};
    Cycles db_cycles[4] = {};
    bench::SweepRunner sweep(&results);
    for (int s = 0; s < 4; ++s) {
        unsigned cores = core_counts[s];
        sweep.add("copy_" + std::to_string(cores) + "core",
                  [&, s, cores](bench::SweepContext &) {
                      copy_thpt[s] = runCores(cores);
                  });
    }
    for (int s = 0; s < 4; ++s) {
        unsigned cores = core_counts[s];
        sweep.add("dbbitmap_" + std::to_string(cores) + "core",
                  [&, s, cores](bench::SweepContext &) {
                      using namespace ccache::apps;
                      DbBitmapConfig cfg;
                      cfg.index.rows = 1 << 17;
                      cfg.numQueries = 16;
                      DbBitmap app(cfg);
                      sim::System sys;
                      db_cycles[s] =
                          app.runParallel(sys, Engine::Cc, cores).cycles;
                  });
    }
    sweep.run();

    double base = copy_thpt[0];
    for (int s = 0; s < 4; ++s) {
        unsigned cores = core_counts[s];
        double thpt = copy_thpt[s];
        std::printf("%8u %22.2f %9.2fx\n", cores, thpt, thpt / base);
        std::string key = "copy_" + std::to_string(cores) + "core";
        results.metric(key + ".gblockops", thpt);
        results.metric(key + ".scaling", thpt / base);
    }

    bench::rule();
    bench::note("Every L3 slice is an independent compute array with its "
                "own");
    bench::note("command bus and partitions, so throughput scales with "
                "the number");
    bench::note("of slices put to work — a 16 MB L3 acts as 512 parallel "
                "sub-arrays.");

    bench::header("Parallel DB-BitMap query processing (CC, queries "
                  "round-robin over cores)");
    std::printf("%8s %16s %10s\n", "cores", "makespan (cyc)", "scaling");
    bench::rule();
    {
        Cycles base_cycles = db_cycles[0];
        for (int s = 0; s < 4; ++s) {
            unsigned cores = core_counts[s];
            std::printf("%8u %16llu %9.2fx\n", cores,
                        static_cast<unsigned long long>(db_cycles[s]),
                        static_cast<double>(base_cycles) /
                            static_cast<double>(db_cycles[s]));
            std::string key = "dbbitmap_" + std::to_string(cores) +
                "core";
            results.metric(key + ".makespan_cycles",
                           static_cast<double>(db_cycles[s]));
            results.metric(key + ".scaling",
                           static_cast<double>(base_cycles) /
                               static_cast<double>(db_cycles[s]));
        }
    }
    bench::note("Independent queries over the shared read-only index "
                "parallelize");
    bench::note("across cores and slices with no coherence traffic on "
                "the bins.");
    return bench::finish(results, sweep);
}

} // namespace bench::ablation_multicore
