/**
 * @file
 * Reproduces Figure 9: application-level speedup (b) and total-energy
 * savings (a) of Compute Caches over the Base_32 SIMD baseline for BMM,
 * WordCount, StringMatch and DB-BitMap.
 */

#include <cmath>

#include "apps/bmm.hh"
#include "apps/dbbitmap.hh"
#include "apps/stringmatch.hh"
#include "apps/wordcount.hh"
#include "bench_util.hh"

using namespace ccache;
using namespace ccache::apps;

namespace bench::fig9_applications {

namespace {

struct AppOutcome
{
    const char *name;
    double speedup;
    double energyRatio;
    double instrReduction;
    bool functional;
};

template <typename App>
AppOutcome
runApp(const char *name, App &app, double paper_speedup)
{
    AppRunResult base, cc;
    {
        sim::System sys;
        base = app.run(sys, Engine::Base32);
    }
    {
        sim::System sys;
        cc = app.run(sys, Engine::Cc);
    }
    AppOutcome out;
    out.name = name;
    out.speedup = static_cast<double>(base.cycles) /
        static_cast<double>(cc.cycles);
    out.energyRatio = base.totals.total() / cc.totals.total();
    out.instrReduction = 100.0 *
        (1.0 - static_cast<double>(cc.instructions) /
             static_cast<double>(base.instructions));
    out.functional = base.checksum == cc.checksum;
    (void)paper_speedup;
    return out;
}

} // namespace

int
run(int, char **)
{
    bench::header("Figure 9: application speedup and total-energy savings"
                  " (CC vs Base_32)");

    bench::ResultsWriter results("fig9_applications");
    results.config("baseline", "Base_32");

    // One sweep point per application; each constructs its own app and
    // runs the Base_32 / CC pair.
    std::vector<AppOutcome> outcomes(4);
    bench::SweepRunner sweep(&results);
    sweep.add("BMM", [&](bench::SweepContext &) {
        BmmConfig cfg;  // 256 x 256 bit matrices per Section VI-B
        Bmm app(cfg);
        outcomes[0] = runApp("BMM", app, 3.2);
    });
    sweep.add("WordCount", [&](bench::SweepContext &) {
        WordCountConfig cfg;
        cfg.corpusBytes = 256 * 1024;
        cfg.text.vocabulary = 8000;  // ~large dictionary, L3-resident
        WordCount app(cfg);
        outcomes[1] = runApp("WordCount", app, 2.0);
    });
    sweep.add("StringMatch", [&](bench::SweepContext &) {
        StringMatchConfig cfg;
        cfg.textBytes = 64 * 1024;
        StringMatch app(cfg);
        outcomes[2] = runApp("StringMatch", app, 1.5);
    });
    sweep.add("DB-BitMap", [&](bench::SweepContext &) {
        DbBitmapConfig cfg;  // 256 KB bins per Section VI-B
        cfg.numQueries = 8;
        DbBitmap app(cfg);
        outcomes[3] = runApp("DB-BitMap", app, 1.6);
    });
    sweep.run();

    std::printf("%-12s %9s %14s %12s %11s\n", "application", "speedup",
                "energy ratio", "instr red.", "functional");
    bench::rule();
    double s_prod = 1.0, e_prod = 1.0;
    for (const auto &o : outcomes) {
        s_prod *= o.speedup;
        e_prod *= o.energyRatio;
        std::printf("%-12s %8.2fx %13.2fx %11.0f%% %11s\n", o.name,
                    o.speedup, o.energyRatio, o.instrReduction,
                    o.functional ? "match" : "MISMATCH");
        std::string key = o.name;
        results.metric(key + ".speedup", o.speedup);
        results.metric(key + ".energy_ratio", o.energyRatio);
        results.metric(key + ".instr_reduction_pct", o.instrReduction);
        results.metric(key + ".functional_match", o.functional ? 1 : 0);
    }
    bench::rule();
    std::printf("%-12s %8.2fx %13.2fx\n", "geomean",
                std::pow(s_prod, 1.0 / outcomes.size()),
                std::pow(e_prod, 1.0 / outcomes.size()));
    results.metric("geomean.speedup",
                   std::pow(s_prod, 1.0 / outcomes.size()));
    results.metric("geomean.energy_ratio",
                   std::pow(e_prod, 1.0 / outcomes.size()));

    bench::note("");
    bench::note("Paper (Figure 9): BMM 3.2x, WordCount 2.0x, StringMatch "
                "1.5x,");
    bench::note("DB-BitMap 1.6x speedup; average 2.7x energy saving; "
                "instruction");
    bench::note("reductions 98% / 87% / 32% / 43%.");
    return bench::finish(results, sweep);
}

} // namespace bench::fig9_applications
