/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: each bench binary
 * regenerates one figure (or figure pair) of the paper's evaluation and
 * prints its series as aligned rows, `Measured` meaning the packet-level
 * simulator and `LogNIC` the analytical model.
 */
#ifndef LOGNIC_BENCH_BENCH_UTIL_HPP_
#define LOGNIC_BENCH_BENCH_UTIL_HPP_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "lognic/runner/thread_pool.hpp"

namespace lognic::bench {

/**
 * Parse `--threads N` from a figure driver's argv (default 1 = serial;
 * `--threads 0` means hardware concurrency). Results are bit-identical for
 * any thread count — the runner derives seeds from point indices alone —
 * so the flag only changes wall-clock time.
 */
inline std::size_t
threads_arg(int argc, char** argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0) {
            char* end = nullptr;
            const long n = std::strtol(argv[i + 1], &end, 10);
            if (n < 0 || end == argv[i + 1] || *end != '\0') {
                std::fprintf(stderr, "bad --threads value '%s'\n",
                             argv[i + 1]);
                std::exit(2);
            }
            return runner::resolve_threads(static_cast<std::size_t>(n));
        }
    }
    return 1;
}

/// Print the figure banner.
inline void
banner(const std::string& figure, const std::string& caption)
{
    std::printf("=== %s ===\n", figure.c_str());
    std::printf("%s\n\n", caption.c_str());
}

/// Print a header row followed by a separator.
inline void
header(const std::vector<std::string>& columns)
{
    for (const auto& c : columns)
        std::printf("%14s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < columns.size(); ++i)
        std::printf("%14s", "------------");
    std::printf("\n");
}

/// Print one row of mixed string/number cells.
inline void
row(const std::string& label, const std::vector<double>& values,
    const char* fmt = "%14.3f")
{
    std::printf("%14s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

inline void
footnote(const std::string& text)
{
    std::printf("\n%s\n\n", text.c_str());
}

} // namespace lognic::bench

#endif // LOGNIC_BENCH_BENCH_UTIL_HPP_
