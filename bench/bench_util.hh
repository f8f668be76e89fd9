/**
 * @file
 * Shared experiment-bench runner utilities.
 *
 * Every bench regenerates one table or figure of the paper. Two output
 * surfaces are produced per run:
 *
 *  - the historical human-readable tables on stdout (header/rule/note),
 *    still what EXPERIMENTS.md quotes; and
 *  - a machine-comparable JSON result file, written by ResultsWriter to
 *    `results/<bench>.json` (override the directory with
 *    $CCACHE_RESULTS_DIR). The file carries a schema version, the git
 *    revision, the bench's key metrics and optional full stats dumps,
 *    so runs are diffable across commits with `tools/ccstat`.
 *
 * Result-file schema (version kBenchResultsVersion; see DESIGN.md §7):
 *
 *     { "schema": "ccache-bench-results", "version": 2,
 *       "bench": "<name>", "git_sha": "<sha or unknown>",
 *       "config": { "<key>": <value>, ... },
 *       "metrics": { "<metric>": <number>, ... },
 *       "stats": { "<label>": <StatRegistry::dumpJson()>, ... },
 *       "perf": { "wall_clock_s": <number>, "cc_block_ops": <number>,
 *                 "ops_per_sec": <number> } }
 *
 * The "perf" section is the one intentionally nondeterministic part of
 * the file: it measures this run on this machine (DESIGN.md §13). It is
 * composed only at write() time and never enters document(), so the
 * determinism tests and the thread-count identity checks compare
 * documents without it; byte-level comparisons of written files must
 * strip it first (`ccstat --identical` does).
 *
 * Benches define their measurement grid as SweepRunner points (one per
 * independent (bench, config) simulation) and print their tables after
 * the sweep barrier, so the whole grid fans out across cores while the
 * stdout tables and the JSON result file stay byte-identical at any
 * thread count (DESIGN.md §8).
 */

#ifndef CCACHE_BENCH_BENCH_UTIL_HH
#define CCACHE_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/perf_counters.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace bench {

/** Version of the bench-results JSON schema (see file header).
 *  v2 added the run-local "perf" section. */
inline constexpr int kBenchResultsVersion = 2;

inline void
header(const std::string &title)
{
    std::printf("\n================================================="
                "=====================\n%s\n"
                "================================================="
                "=====================\n",
                title.c_str());
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

inline void
rule()
{
    std::printf("----------------------------------------------------"
                "------------------\n");
}

/** Directory for result files: $CCACHE_RESULTS_DIR or ./results. */
inline std::string
resultsDir()
{
    const char *env = std::getenv("CCACHE_RESULTS_DIR");
    return env && *env ? env : "results";
}

/** True iff @p sha looks like a short-or-full git object name. */
inline bool
plausibleGitSha(const std::string &sha)
{
    if (sha.size() < 4 || sha.size() > 40)
        return false;
    for (char c : sha) {
        bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex)
            return false;
    }
    return true;
}

/**
 * Current git revision (short), or "unknown". Every failure mode of the
 * probe — popen failure, non-git checkout, git missing, a non-zero exit,
 * shell noise on stdout — yields exactly "unknown" so garbage can never
 * reach a committed result file.
 */
inline std::string
gitSha()
{
    std::string sha;
#if defined(__unix__) || defined(__APPLE__)
    FILE *p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p))
        sha.assign(buf);
    int status = ::pclose(p);
    while (!sha.empty() &&
           (sha.back() == '\n' || sha.back() == '\r' || sha.back() == ' '))
        sha.pop_back();
    if (status != 0 || !plausibleGitSha(sha))
        return "unknown";
#else
    sha = "unknown";
#endif
    return sha.empty() ? "unknown" : sha;
}

/**
 * Crash-safe file write: the content lands in `<path>.tmp.<pid>` first
 * and is atomically renamed over @p path only after every stream
 * operation (open, write, flush, close) reported success. A reader —
 * including `ccbench --resume` after a SIGKILL — therefore sees either
 * the complete old file or the complete new file, never a torn one.
 */
inline bool
atomicWriteFile(const std::string &path, const std::string &content)
{
    namespace fs = std::filesystem;
#if defined(__unix__) || defined(__APPLE__)
    std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
#else
    std::string tmp = path + ".tmp";
#endif
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << content;
        out.flush();
        if (!out) {
            out.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        std::error_code rm;
        fs::remove(tmp, rm);
        return false;
    }
    return true;
}

/**
 * Accumulates one bench run's machine-readable output and writes the
 * schema-versioned JSON result file. Typical use:
 *
 *     bench::ResultsWriter results("fig7_microbench");
 *     results.config("operand_bytes", 4096);
 *     results.metric("copy.speedup", speedup);
 *     results.stats("cc_copy", sys.stats());
 *     results.write();   // -> results/fig7_microbench.json
 */
class ResultsWriter
{
  public:
    explicit ResultsWriter(std::string bench_name)
        : name_(std::move(bench_name))
    {
        doc_["schema"] = "ccache-bench-results";
        doc_["version"] = kBenchResultsVersion;
        doc_["bench"] = name_;
        doc_["git_sha"] = gitSha();
        doc_["config"] = ccache::Json::object();
        doc_["metrics"] = ccache::Json::object();
        doc_["stats"] = ccache::Json::object();
    }

    /** Record one configuration fact (what was run). */
    void config(const std::string &key, ccache::Json value)
    {
        doc_["config"][key] = std::move(value);
    }

    /** Record one headline number (what came out). Metric names follow
     *  the stats convention: `<series>.<quantity>`, e.g. "copy.speedup". */
    void metric(const std::string &name, double value)
    {
        doc_["metrics"][name] = value;
    }

    /** Embed a full stats dump under @p label (one per configuration). */
    void stats(const std::string &label, const ccache::StatRegistry &reg)
    {
        doc_["stats"][label] = reg.dumpJson();
    }

    /** Same, for a dump captured earlier (registry no longer alive). */
    void statsJson(const std::string &label, ccache::Json dump)
    {
        doc_["stats"][label] = std::move(dump);
    }

    /** Attach an arbitrary extra section (e.g. trace-file pointers). */
    void extra(const std::string &key, ccache::Json value)
    {
        doc_[key] = std::move(value);
    }

    /**
     * Record one contained per-point failure. The "errors" section is
     * created on first use only, so error-free documents stay
     * byte-identical to the committed baselines. Entry shape:
     *
     *     { "point": "<sweep key>", "kind": "sim_error" | "fatal_error"
     *       | "exception", "message": "<what()>",
     *       "diagnostic": <JSON, when the SimError carried one> }
     */
    void error(const std::string &point, const std::string &kind,
               const std::string &message,
               const ccache::Json *diagnostic = nullptr)
    {
        ccache::Json e = ccache::Json::object();
        e["point"] = point;
        e["kind"] = kind;
        e["message"] = message;
        if (diagnostic && !diagnostic->isNull())
            e["diagnostic"] = *diagnostic;
        doc_["errors"].push(std::move(e));
        ++errorCount_;
    }

    /** Contained failures recorded so far (non-zero => bench exits 1). */
    std::size_t errorCount() const { return errorCount_; }

    const std::string &name() const { return name_; }

    /** The accumulated result document (determinism tests compare its
     *  serialized form across thread counts). Deliberately excludes the
     *  "perf" section, which is nondeterministic by design. */
    const ccache::Json &document() const { return doc_; }

    /**
     * This run's measured throughput: wall-clock since this writer was
     * constructed, the CC block ops the process executed in that window,
     * and their quotient. Nondeterministic on purpose — this is the
     * number the perf CI gate tracks (DESIGN.md §13).
     */
    ccache::Json perfSection() const
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        std::uint64_t ops = ccache::perf::ccBlockOps() - startOps_;
        ccache::Json p = ccache::Json::object();
        p["wall_clock_s"] = wall;
        p["cc_block_ops"] = ops;
        p["ops_per_sec"] =
            wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
        return p;
    }

    /**
     * Write `<resultsDir()>/<bench>.json` (directory created on demand)
     * via temp-file + atomic rename with checked stream state, and
     * print where it landed. The perf section is composed here, on the
     * deterministic document. Returns the path, empty on failure — the
     * caller must propagate that as a non-zero exit (bench::finish
     * does).
     */
    std::string write()
    {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::create_directories(resultsDir(), ec);
        std::string path = resultsDir() + "/" + name_ + ".json";
        ccache::Json doc = doc_;
        doc["perf"] = perfSection();
        if (!atomicWriteFile(path, doc.dump(2) + "\n")) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return "";
        }
        std::printf("\nresults: %s\n", path.c_str());
        return path;
    }

  private:
    std::string name_;
    ccache::Json doc_;
    std::size_t errorCount_ = 0;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::uint64_t startOps_ = ccache::perf::ccBlockOps();
};

/** Default base seed of a bench sweep (see SweepContext::seed()). */
inline constexpr std::uint64_t kSweepBaseSeed = 0x5eedcac8e5ULL;

/**
 * Execution context of one sweep point. Everything a point touches is
 * owned here — RNG, stat registry, trace sink, recorded metrics — so
 * points share no mutable state and may run on any thread in any order.
 *
 * The RNG seed is derived as hash(base_seed, point key), never from a
 * global or from scheduling, so a point's random stream is a pure
 * function of its identity (DESIGN.md §8).
 */
class SweepContext
{
  public:
    SweepContext(std::string key, std::size_t index,
                 std::uint64_t base_seed)
        : key_(std::move(key)), index_(index),
          seed_(ccache::deriveSeed(base_seed, key_)), rng_(seed_)
    {
    }

    const std::string &key() const { return key_; }
    std::size_t index() const { return index_; }

    /** This point's derived seed: hash(base_seed, key). */
    std::uint64_t seed() const { return seed_; }

    /** This point's private RNG, seeded with seed(). */
    ccache::Rng &rng() { return rng_; }

    /** An independent named sub-stream, e.g. rngFor("monte_carlo"):
     *  adding draws to one stream never shifts another. */
    ccache::Rng rngFor(std::string_view label) const
    {
        return ccache::Rng(ccache::deriveSeed(seed_, label));
    }

    /** Point-local stat registry; merged (in point order) into
     *  SweepRunner::mergedStats() at the barrier. */
    ccache::StatRegistry &stats() { return stats_; }

    /** Point-local trace sink (disabled unless the point enables it);
     *  merged in point order into SweepRunner::mergedTrace(). */
    ccache::EventTrace &trace() { return trace_; }

    /** Record one headline number into the bench's ResultsWriter
     *  (applied at the barrier, in point order). */
    void metric(std::string name, double value)
    {
        metrics_.emplace_back(std::move(name), value);
    }

    /** Record one configuration fact into the ResultsWriter. */
    void config(std::string key, ccache::Json value)
    {
        configs_.emplace_back(std::move(key), std::move(value));
    }

    /** Embed a full stats dump under @p label in the ResultsWriter. */
    void statsJson(std::string label, ccache::Json dump)
    {
        statsDumps_.emplace_back(std::move(label), std::move(dump));
    }

  private:
    friend class SweepRunner;

    std::string key_;
    std::size_t index_;
    std::uint64_t seed_;
    ccache::Rng rng_;
    ccache::StatRegistry stats_;
    ccache::EventTrace trace_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, ccache::Json>> configs_;
    std::vector<std::pair<std::string, ccache::Json>> statsDumps_;
};

/**
 * The parallel sweep engine: fans a bench's independent (config) points
 * out across a work-stealing thread pool and merges their outputs at
 * the barrier, in point-definition order, so every output surface —
 * ResultsWriter document, merged stats, merged trace, anything the
 * points stored into caller-owned slots — is bit-identical to a serial
 * run regardless of thread count or scheduling (DESIGN.md §8).
 *
 *     bench::ResultsWriter results("fig8_cache_levels");
 *     bench::SweepRunner sweep(&results);
 *     std::vector<Outcome> out(12);
 *     for (...each config...)
 *         sweep.add(key, [&, i](bench::SweepContext &ctx) {
 *             out[i] = runOnce(...);          // into a disjoint slot
 *             ctx.metric(key + ".saving", out[i].saving);
 *         });
 *     sweep.run();           // $CCACHE_JOBS workers (1 = inline)
 *     ...print tables from out[]...
 */
class SweepRunner
{
  public:
    using PointFn = std::function<void(SweepContext &)>;

    explicit SweepRunner(ResultsWriter *results = nullptr,
                         std::uint64_t base_seed = kSweepBaseSeed)
        : results_(results), baseSeed_(base_seed)
    {
    }

    /** Define one point. @p key names it uniquely within the sweep: it
     *  is the metric prefix by convention and the RNG shard key. */
    void add(std::string key, PointFn fn)
    {
        CC_ASSERT(!ran_, "SweepRunner::add after run");
        Point p;
        p.key = std::move(key);
        p.fn = std::move(fn);
        points_.push_back(std::move(p));
    }

    std::size_t size() const { return points_.size(); }

    /** Number of sweep workers: $CCACHE_JOBS or hardware threads. */
    static unsigned defaultJobs()
    {
        return ccache::ThreadPool::defaultWorkers();
    }

    /** Run every point across @p jobs workers (1 = inline serial run,
     *  the determinism reference), then merge at the barrier. */
    void run(unsigned jobs = defaultJobs())
    {
        ccache::ThreadPool pool(jobs <= 1 ? 0 : jobs);
        runOn(pool);
    }

    /** Same, on a caller-provided pool. */
    void runOn(ccache::ThreadPool &pool)
    {
        CC_ASSERT(!ran_, "SweepRunner::run called twice");
        ran_ = true;
        // Contexts are created up front so index/seed assignment cannot
        // depend on execution order.
        for (std::size_t i = 0; i < points_.size(); ++i)
            points_[i].ctx = std::make_unique<SweepContext>(
                points_[i].key, i, baseSeed_);
        // Failures are contained per point, INSIDE the task: the pool
        // must never see an exception (it would rethrow at the barrier
        // and discard the surviving points). A failed point contributes
        // only its structured error record at the merge; whether other
        // points ran before or after it cannot change their bytes
        // (DESIGN.md §8 survives error containment).
        pool.parallelFor(points_.size(), [this](std::size_t i) {
            Point &p = points_[i];
            try {
                p.fn(*p.ctx);
            } catch (const ccache::SimError &e) {
                p.errorKind = "sim_error";
                p.errorMessage = e.what();
                if (!e.diagnostic().empty()) {
                    std::string perr;
                    p.errorDiagnostic =
                        ccache::Json::parse(e.diagnostic(), &perr);
                }
            } catch (const ccache::FatalError &e) {
                p.errorKind = "fatal_error";
                p.errorMessage = e.what();
            } catch (const std::exception &e) {
                p.errorKind = "exception";
                p.errorMessage = e.what();
            }
        });
        merge();
    }

    /** Points that failed (their error records are in the
     *  ResultsWriter's "errors" section after the barrier). */
    std::size_t errorCount() const { return errors_; }

    /** Every point's stats, merged in point order at the barrier. */
    const ccache::StatRegistry &mergedStats() const { return mergedStats_; }

    /** Every point's trace events, merged in point order. */
    const ccache::EventTrace &mergedTrace() const { return mergedTrace_; }

  private:
    struct Point
    {
        std::string key;
        PointFn fn;
        std::unique_ptr<SweepContext> ctx;
        std::string errorKind;      ///< empty = the point succeeded
        std::string errorMessage;
        ccache::Json errorDiagnostic;
    };

    void merge()
    {
        for (Point &p : points_) {
            if (!p.errorKind.empty()) {
                // A failed point may hold partial metrics/stats from
                // before the throw; contributing any of them would make
                // the output depend on where exactly it died. Only the
                // error record survives.
                ++errors_;
                std::fprintf(stderr,
                             "sweep point '%s' FAILED (%s): %s\n",
                             p.key.c_str(), p.errorKind.c_str(),
                             p.errorMessage.c_str());
                if (results_)
                    results_->error(p.key, p.errorKind, p.errorMessage,
                                    &p.errorDiagnostic);
                continue;
            }
            SweepContext &ctx = *p.ctx;
            if (results_) {
                for (auto &[key, value] : ctx.configs_)
                    results_->config(key, std::move(value));
                for (auto &[name, value] : ctx.metrics_)
                    results_->metric(name, value);
                for (auto &[label, dump] : ctx.statsDumps_)
                    results_->statsJson(label, std::move(dump));
            }
            mergedStats_.mergeFrom(ctx.stats_);
            mergedTrace_.mergeFrom(ctx.trace_);
        }
    }

    std::vector<Point> points_;
    ResultsWriter *results_;
    std::uint64_t baseSeed_;
    bool ran_ = false;
    std::size_t errors_ = 0;
    ccache::StatRegistry mergedStats_;
    ccache::EventTrace mergedTrace_;
};

/**
 * Standard bench epilogue: write the result file and derive the process
 * exit code. Returns non-zero when the write failed, when any sweep
 * point was contained as an error, or when the bench's own sanity check
 * (@p ok) failed — so ccbench and CI see every degraded run.
 */
inline int
finish(ResultsWriter &results, const SweepRunner &sweep, bool ok = true)
{
    bool wrote = !results.write().empty();
    if (sweep.errorCount() > 0)
        std::fprintf(stderr, "%s: %zu sweep point(s) failed\n",
                     results.name().c_str(), sweep.errorCount());
    return wrote && ok && sweep.errorCount() == 0 ? 0 : 1;
}

} // namespace bench

#endif // CCACHE_BENCH_BENCH_UTIL_HH
