/**
 * @file
 * ccbench: run the whole bench catalog in parallel and gate on the
 * golden baseline in one shot.
 *
 * Usage:
 *
 *     ccbench [-j N] [--inner-jobs N] [--results DIR] [--baseline DIR]
 *             [--threshold FRAC] [--stats] [--list] [--no-compare]
 *             [--resume] [--filter REGEX] [BENCH...]
 *     ccbench --run NAME
 *
 * Every bench of the paper is compiled into this binary and listed in
 * kCatalog below; `--list` prints that table. `--run NAME` runs one
 * bench in this process and exits with its status.
 *
 * Catalog selection: positional BENCH arguments are substring matches;
 * `--filter` takes an ECMAScript regex (partial match, repeatable).
 * Both may be combined — a bench runs when it passes both. A filtered
 * run appends to the completion journal instead of truncating it, so
 * `--resume` of the full catalog stays correct after a filtered run
 * (see tools/catalog_filter.hh).
 *
 * Each selected bench is one unit of work. ccbench fans the units out
 * across a work-stealing thread pool (`-j`, default: $CCACHE_JOBS or
 * hardware threads), each bench running as its own subprocess — this
 * binary again, `/proc/self/exe --run NAME`, started with posix_spawn
 * (not system(3), so SIGINT and SIGTERM reach ccbench itself) — with
 *
 *   - CCACHE_RESULTS_DIR pointing at the shared results directory, so
 *     every bench writes `results/<bench>.json` exactly as a serial
 *     shell loop over `ccbench --run` would, and
 *   - CCACHE_JOBS set to `--inner-jobs` (default 1), so the per-bench
 *     sweep engines don't oversubscribe the machine while ccbench is
 *     already using every core across benches. `-j1 --inner-jobs N`
 *     inverts that: benches serial, each sweep parallel — both modes
 *     must produce byte-identical result files (DESIGN.md §8).
 *
 * A bench that crashes takes down only its own process, and its
 * process-wide counters (the perf section's cc_block_ops) count that
 * bench alone.
 *
 * Each bench's stdout/stderr is captured to `results/<bench>.log`.
 * After the barrier, every result file with a matching file in the
 * baseline directory (default `ci/baseline/`) is compared with the
 * shared result_compare.hh logic, and a wall-clock summary reports the
 * parallel makespan against the serial-equivalent (sum of per-bench)
 * time.
 *
 * Crash-safe recovery: each successful bench appends an `ok <name>`
 * line to `<results>/ccbench.journal`. On SIGINT/SIGTERM ccbench
 * drains gracefully — unstarted benches are skipped, already-running
 * ones finish and are journaled, comparisons are skipped, and the exit
 * status is 130. A follow-up `ccbench --resume` re-runs only the
 * benches without a journal entry (and whose result JSON exists);
 * because every bench rewrites its result file atomically and
 * deterministically, an interrupted-then-resumed catalog is
 * byte-identical to an uninterrupted run.
 *
 * Exit status: 0 all benches ran and no metric drifted, 1 when a bench
 * failed or a metric drifted, 2 on usage or I/O errors, 130 when
 * interrupted. `--run NAME` exits with the bench's own status, or 2
 * when no bench has that name.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <cerrno>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "catalog_filter.hh"
#include "result_compare.hh"

extern char **environ;

// Entry points of the benches (bench/<name>.cc), one per namespace.
namespace bench::ablation_ecc { int run(int, char **); }
namespace bench::ablation_fault { int run(int, char **); }
namespace bench::ablation_locality { int run(int, char **); }
namespace bench::ablation_multicore { int run(int, char **); }
namespace bench::ablation_power_cap { int run(int, char **); }
namespace bench::ablation_subarray { int run(int, char **); }
namespace bench::ablation_tagdata { int run(int, char **); }
namespace bench::fig10_checkpoint_overhead { int run(int, char **); }
namespace bench::fig11_checkpoint_energy { int run(int, char **); }
namespace bench::fig3_energy_proportions { int run(int, char **); }
namespace bench::fig7_microbench { int run(int, char **); }
namespace bench::fig8_cache_levels { int run(int, char **); }
namespace bench::fig8_inplace_vs_nearplace { int run(int, char **); }
namespace bench::fig9_applications { int run(int, char **); }
namespace bench::neural_gemm { int run(int, char **); }
namespace bench::sampled_trace { int run(int, char **); }
namespace bench::serve_failover { int run(int, char **); }
namespace bench::serve_fleet { int run(int, char **); }
namespace bench::serve_scheduler { int run(int, char **); }
namespace bench::table1_cache_energy { int run(int, char **); }
namespace bench::table3_operand_locality { int run(int, char **); }
namespace bench::table4_simulator_params { int run(int, char **); }
namespace bench::table5_cc_op_energy { int run(int, char **); }

namespace {

/** One bench of the catalog. */
struct Bench
{
    const char *name;
    const char *description;   ///< the `--list` column
    int (*run)(int argc, char **argv);
};

/** Every bench, sorted by name: the catalog ccbench runs and lists. */
constexpr Bench kCatalog[] = {
    {"ablation_ecc",
     "Section IV-I: XOR-check unit vs scrubbing ECC ablation",
     bench::ablation_ecc::run},
    {"ablation_fault",
     "Fault-injection ladder: rate vs slowdown/energy/corruption",
     bench::ablation_fault::run},
    {"ablation_locality",
     "Section IV-C: operand-misalignment sensitivity sweep",
     bench::ablation_locality::run},
    {"ablation_multicore",
     "Multi-core CC scaling over NUCA slices",
     bench::ablation_multicore::run},
    {"ablation_power_cap",
     "Section IV-D: active-sub-array power cap sweep",
     bench::ablation_power_cap::run},
    {"ablation_subarray",
     "Section II-B: multi-row activation robustness sweep",
     bench::ablation_subarray::run},
    {"ablation_tagdata",
     "Section IV-C: serial vs parallel tag-data access",
     bench::ablation_tagdata::run},
    {"fig10_checkpoint_overhead",
     "Figure 10: checkpointing performance overhead",
     bench::fig10_checkpoint_overhead::run},
    {"fig11_checkpoint_energy",
     "Figure 11: checkpointing total energy",
     bench::fig11_checkpoint_energy::run},
    {"fig3_energy_proportions",
     "Figure 3: instruction-processing vs data-movement energy",
     bench::fig3_energy_proportions::run},
    {"fig7_microbench",
     "Figure 7: throughput + energy of the four CC kernels",
     bench::fig7_microbench::run},
    {"fig8_cache_levels",
     "Figure 8b: CC savings with operands at L1/L2/L3",
     bench::fig8_cache_levels::run},
    {"fig8_inplace_vs_nearplace",
     "Figure 8a: in-place vs near-place energy & throughput",
     bench::fig8_inplace_vs_nearplace::run},
    {"fig9_applications",
     "Figure 9: application speedup & energy (BMM, WordCount, ...)",
     bench::fig9_applications::run},
    {"neural_gemm",
     "Bit-serial int8 GEMM (Neural Cache MACs) vs scalar/SIMD",
     bench::neural_gemm::run},
    {"sampled_trace",
     "Sampled trace frontend: phase clustering vs full-run golden",
     bench::sampled_trace::run},
    {"serve_failover",
     "Sharded serving: availability through shard kill+recovery",
     bench::serve_failover::run},
    {"serve_fleet",
     "Fleet controller: fan-out, migration, global backpressure",
     bench::serve_fleet::run},
    {"serve_scheduler",
     "Multi-tenant DRR batch scheduler vs FIFO at saturation",
     bench::serve_scheduler::run},
    {"table1_cache_energy",
     "Table I: per-access read energy split (H-tree vs bit-array)",
     bench::table1_cache_energy::run},
    {"table3_operand_locality",
     "Table III: geometry-derived operand-locality constraint",
     bench::table3_operand_locality::run},
    {"table4_simulator_params",
     "Table IV: the simulated machine, from live config",
     bench::table4_simulator_params::run},
    {"table5_cc_op_energy",
     "Table V: per-block energy for every op at every level",
     bench::table5_cc_op_energy::run},
};

static_assert(std::is_sorted(std::begin(kCatalog), std::end(kCatalog),
                             [](const Bench &a, const Bench &b) {
                                 return std::string_view(a.name) <
                                     std::string_view(b.name);
                             }),
              "kCatalog must stay sorted by name");

/** The catalog entry called @p name, or nullptr. */
const Bench *
findBench(std::string_view name)
{
    for (const Bench &b : kCatalog)
        if (name == b.name)
            return &b;
    return nullptr;
}

namespace fs = std::filesystem;

/** Set by the SIGINT/SIGTERM handler; polled between bench launches. */
volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

struct Options
{
    unsigned jobs = ccache::ThreadPool::defaultWorkers();
    unsigned innerJobs = 1;
    std::string resultsDir;
    std::string baselineDir = "ci/baseline";
    double threshold = 0.05;
    bool compareStats = false;
    bool listOnly = false;
    bool compare = true;
    bool resume = false;
    cctools::CatalogFilter filter;
};

struct BenchRun
{
    std::string name;
    const char *description = "";
    int exitCode = -1;
    double seconds = 0.0;
    bool cached = false;    ///< satisfied from the journal (--resume)
    bool skipped = false;   ///< never started (graceful drain)
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [-j N] [--inner-jobs N] [--results DIR] "
                 "[--baseline DIR]\n"
                 "       [--threshold FRAC] [--stats] [--list] "
                 "[--no-compare] [--resume]\n"
                 "       [--filter REGEX] [BENCH...]\n"
                 "       %s --run NAME\n",
                 argv0, argv0);
}

/** Results directory: $CCACHE_RESULTS_DIR or ./results. */
std::string
defaultResultsDir()
{
    const char *env = std::getenv("CCACHE_RESULTS_DIR");
    return env && *env ? env : "results";
}

/** Names journaled as complete in `<results>/ccbench.journal`. */
std::set<std::string>
readJournal(const std::string &path)
{
    std::set<std::string> done;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("ok ", 0) == 0)
            done.insert(line.substr(3));
    }
    return done;
}

/**
 * Run one bench as a subprocess, stdout+stderr captured to its log
 * file. Returns via run.exitCode: the child's exit status, 128+sig if
 * it died on a signal, or -1 if the spawn itself failed.
 */
void
runBench(BenchRun &run, const Options &opt)
{
    std::string log = opt.resultsDir + "/" + run.name + ".log";

    // Child environment: inherit ours, overriding the two knobs that
    // coordinate bench parallelism with ccbench's own fan-out.
    std::vector<std::string> env_strings;
    for (char **e = environ; *e; ++e) {
        if (!std::strncmp(*e, "CCACHE_JOBS=", 12) ||
            !std::strncmp(*e, "CCACHE_RESULTS_DIR=", 19))
            continue;
        env_strings.emplace_back(*e);
    }
    env_strings.push_back("CCACHE_JOBS=" + std::to_string(opt.innerJobs));
    env_strings.push_back("CCACHE_RESULTS_DIR=" + opt.resultsDir);
    std::vector<char *> envp;
    envp.reserve(env_strings.size() + 1);
    for (std::string &s : env_strings)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    // The child is this binary again, running the one bench.
    char arg0[] = "ccbench";
    char flag[] = "--run";
    std::string name = run.name;
    char *child_argv[] = {arg0, flag, name.data(), nullptr};

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);

    auto start = std::chrono::steady_clock::now();
    pid_t pid = -1;
    int rc = ::posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                           child_argv, envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        std::fprintf(stderr, "ccbench: cannot spawn %s: %s\n",
                     run.name.c_str(), std::strerror(rc));
        run.exitCode = -1;
        return;
    }

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {   // EINTR: our own SIGINT/SIGTERM handler
            run.exitCode = -1;
            return;
        }
    }
    auto end = std::chrono::steady_clock::now();
    run.seconds = std::chrono::duration<double>(end - start).count();
    if (WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        run.exitCode = 128 + WTERMSIG(status);
    else
        run.exitCode = -1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && !std::strcmp(argv[1], "--run")) {
        if (argc < 3) {
            usage(argv[0]);
            return 2;
        }
        const Bench *bench = findBench(argv[2]);
        if (!bench) {
            std::fprintf(stderr, "ccbench: no bench named '%s' "
                                 "(see --list)\n",
                         argv[2]);
            return 2;
        }
        return bench->run(argc - 2, argv + 2);
    }

    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto needArg = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "ccbench: %s needs an argument\n",
                             flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "-j") ||
            !std::strcmp(argv[i], "--jobs")) {
            long n = std::atol(needArg("-j"));
            opt.jobs = n >= 1 ? static_cast<unsigned>(n) : 1;
        } else if (!std::strncmp(argv[i], "-j", 2) &&
                   std::isdigit(static_cast<unsigned char>(argv[i][2]))) {
            long n = std::atol(argv[i] + 2);
            opt.jobs = n >= 1 ? static_cast<unsigned>(n) : 1;
        } else if (!std::strcmp(argv[i], "--inner-jobs")) {
            long n = std::atol(needArg("--inner-jobs"));
            opt.innerJobs = n >= 1 ? static_cast<unsigned>(n) : 1;
        } else if (!std::strcmp(argv[i], "--results")) {
            opt.resultsDir = needArg("--results");
        } else if (!std::strcmp(argv[i], "--baseline")) {
            opt.baselineDir = needArg("--baseline");
        } else if (!std::strcmp(argv[i], "--threshold")) {
            opt.threshold = std::atof(needArg("--threshold"));
        } else if (!std::strcmp(argv[i], "--stats")) {
            opt.compareStats = true;
        } else if (!std::strcmp(argv[i], "--list")) {
            opt.listOnly = true;
        } else if (!std::strcmp(argv[i], "--no-compare")) {
            opt.compare = false;
        } else if (!std::strcmp(argv[i], "--resume")) {
            opt.resume = true;
        } else if (!std::strcmp(argv[i], "--filter")) {
            std::string error;
            if (!opt.filter.addRegex(needArg("--filter"), &error)) {
                std::fprintf(stderr, "ccbench: bad --filter regex: %s\n",
                             error.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
            return 0;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "ccbench: unknown option %s\n", argv[i]);
            usage(argv[0]);
            return 2;
        } else {
            opt.filter.addSubstring(argv[i]);
        }
    }
    if (opt.resultsDir.empty())
        opt.resultsDir = defaultResultsDir();

    std::vector<BenchRun> catalog;
    for (const Bench &b : kCatalog)
        if (opt.filter.matches(b.name))
            catalog.push_back(BenchRun{b.name, b.description});
    if (catalog.empty()) {
        std::fprintf(stderr, "ccbench: no bench matches the selection\n");
        return 2;
    }
    if (opt.listOnly) {
        for (const BenchRun &b : catalog)
            std::printf("%-28s %s\n", b.name.c_str(), b.description);
        return 0;
    }

    std::error_code ec;
    fs::create_directories(opt.resultsDir, ec);
    if (ec) {
        std::fprintf(stderr, "ccbench: cannot create %s: %s\n",
                     opt.resultsDir.c_str(), ec.message().c_str());
        return 2;
    }

    // Completion journal: an unrestricted fresh run truncates it;
    // --resume honours it; a filtered run appends so the records of
    // benches outside the filter survive (catalog_filter.hh).
    std::string journal_path = opt.resultsDir + "/ccbench.journal";
    std::size_t resumed = 0;
    if (opt.resume) {
        std::set<std::string> done = readJournal(journal_path);
        std::vector<std::string> names;
        names.reserve(catalog.size());
        for (const BenchRun &b : catalog)
            names.push_back(b.name);
        std::vector<bool> cached = cctools::planResume(
            names, done, [&](const std::string &name) {
                return fs::exists(opt.resultsDir + "/" + name + ".json");
            });
        for (std::size_t i = 0; i < catalog.size(); ++i) {
            if (cached[i]) {
                catalog[i].cached = true;
                catalog[i].exitCode = 0;
                ++resumed;
            }
        }
    }
    bool append = cctools::journalAppendMode(opt.resume,
                                             !opt.filter.empty());
    std::ofstream journal(journal_path,
                          append ? std::ios::app : std::ios::trunc);
    if (!journal) {
        std::fprintf(stderr, "ccbench: cannot open %s\n",
                     journal_path.c_str());
        return 2;
    }
    std::mutex journal_mutex;

    // Graceful drain on ^C / TERM: stop launching, let running benches
    // finish (they are separate processes writing atomically anyway),
    // journal what completed, and skip the baseline gate.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    std::printf("ccbench: %zu benches, %u jobs (inner sweeps: %u), "
                "results -> %s\n",
                catalog.size(), opt.jobs, opt.innerJobs,
                opt.resultsDir.c_str());
    if (resumed)
        std::printf("ccbench: resuming, %zu bench(es) already complete "
                    "per %s\n",
                    resumed, journal_path.c_str());

    // Fan the catalog out. Each task writes only its own BenchRun slot;
    // the journal is the only shared mutable state and has its mutex.
    auto wall_start = std::chrono::steady_clock::now();
    {
        ccache::ThreadPool pool(opt.jobs <= 1 ? 0 : opt.jobs);
        pool.parallelFor(catalog.size(), [&](std::size_t i) {
            BenchRun &b = catalog[i];
            if (b.cached)
                return;
            if (g_stop) {
                b.skipped = true;
                return;
            }
            runBench(b, opt);
            if (b.exitCode == 0) {
                std::lock_guard<std::mutex> lock(journal_mutex);
                journal << "ok " << b.name << "\n";
                journal.flush();
            }
        });
    }
    auto wall_end = std::chrono::steady_clock::now();
    double wall =
        std::chrono::duration<double>(wall_end - wall_start).count();
    bool interrupted = g_stop != 0;

    int failures = 0;
    std::size_t skipped = 0;
    double serial_equiv = 0.0;
    for (const BenchRun &b : catalog) {
        serial_equiv += b.seconds;
        if (b.cached) {
            std::printf("cached   %-28s (journal)\n", b.name.c_str());
        } else if (b.skipped) {
            std::printf("skip     %-28s (interrupted before start)\n",
                        b.name.c_str());
            ++skipped;
        } else if (b.exitCode != 0) {
            // A bench killed by the same ^C that stopped ccbench is part
            // of the interruption, not a bench failure.
            if (interrupted && b.exitCode >= 128) {
                std::printf("int      %-28s (signal during drain)\n",
                            b.name.c_str());
                ++skipped;
            } else {
                std::printf("FAIL     %-28s exit %d (see %s/%s.log)\n",
                            b.name.c_str(), b.exitCode,
                            opt.resultsDir.c_str(), b.name.c_str());
                ++failures;
            }
        } else {
            std::printf("ok       %-28s %6.2fs\n", b.name.c_str(),
                        b.seconds);
        }
    }

    // Baseline gate: every result file with a committed golden twin.
    // Skipped entirely on interruption — a partial catalog must not be
    // judged against the full baseline set.
    int flagged = 0;
    int compared = 0;
    if (opt.compare && failures == 0 && !interrupted) {
        for (const BenchRun &b : catalog) {
            std::string base_path =
                opt.baselineDir + "/" + b.name + ".json";
            if (!fs::exists(base_path))
                continue;
            std::string cur_path =
                opt.resultsDir + "/" + b.name + ".json";
            ccache::Json base, cur;
            if (!cctools::loadResults(base_path, base) ||
                !cctools::loadResults(cur_path, cur)) {
                ++flagged;
                continue;
            }
            int n = cctools::compareResults(base, cur, opt.threshold,
                                            opt.compareStats);
            std::printf("%-8s %-28s vs %s (%d metric(s) beyond "
                        "%.1f%%)\n",
                        n ? "DRIFT" : "match", b.name.c_str(),
                        base_path.c_str(), n, 100.0 * opt.threshold);
            flagged += n;
            ++compared;
        }
        if (compared == 0)
            std::printf("note: no baselines found under %s\n",
                        opt.baselineDir.c_str());
    }

    std::printf("\n%zu benches in %.2fs wall (serial-equivalent "
                "%.2fs, %.2fx)\n",
                catalog.size(), wall, serial_equiv,
                wall > 0.0 ? serial_equiv / wall : 0.0);
    if (interrupted)
        std::printf("interrupted: %zu bench(es) not run; rerun with "
                    "--resume to finish the catalog\n",
                    skipped);
    if (failures)
        std::printf("%d bench(es) FAILED\n", failures);
    if (flagged)
        std::printf("%d metric(s) drifted beyond the baseline "
                    "threshold\n",
                    flagged);
    if (interrupted)
        return 130;
    return failures || flagged ? 1 : 0;
}
