// Shared helpers for the reproduction benches: every bench prints its
// figure/table and a "paper vs measured" summary block, and drops a
// telemetry sidecar (BENCH_<id>.metrics.json) into bench_out/ so the
// result trajectories carry solver-health data.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "sttram/obs/metrics.hpp"

namespace sttram::bench {

/// The sidecar directory: STTRAM_BENCH_METRICS_DIR, then the shared
/// STTRAM_BENCH_DIR (also set by --bench-dir), then bench_out/ under the
/// working directory.  Created best effort — the sidecar writer already
/// tolerates an unwritable path.
inline std::string metrics_dir() {
  const char* dir = std::getenv("STTRAM_BENCH_METRICS_DIR");
  if (dir == nullptr || dir[0] == '\0') dir = std::getenv("STTRAM_BENCH_DIR");
  const std::string out =
      dir != nullptr && dir[0] != '\0' ? dir : "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  return out;
}

/// Peels `--bench-dir <dir>` out of argv and exports it as
/// STTRAM_BENCH_DIR for the sidecar writer.  Returns the compacted argc;
/// call first thing in main().
inline int apply_bench_dir_flag(int argc, char** argv) {
  int out = 1;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--bench-dir") == 0 && k + 1 < argc) {
      ::setenv("STTRAM_BENCH_DIR", argv[k + 1], 1);
      ++k;
      continue;
    }
    argv[out++] = argv[k];
  }
  return out;
}

/// Enables telemetry for this bench process and arranges for the metrics
/// registry to be dumped to BENCH_<id>.metrics.json in metrics_dir() at
/// exit (the first heading of the run names the sidecar).  Set
/// STTRAM_BENCH_METRICS=0 to opt out.
inline void enable_metrics_sidecar(const std::string& id) {
  static bool armed = false;
  if (armed) return;
  armed = true;
  if (const char* flag = std::getenv("STTRAM_BENCH_METRICS");
      flag != nullptr && std::string(flag) == "0") {
    return;
  }
  std::string stem;
  for (const char ch : id) {
    stem += std::isalnum(static_cast<unsigned char>(ch)) != 0 ? ch : '_';
  }
  static std::string path;
  path = metrics_dir() + "/BENCH_" + stem + ".metrics.json";
  sttram::obs::set_metrics_enabled(true);
  std::atexit(+[] {
    try {
      sttram::obs::write_metrics_json(path);
    } catch (...) {
      // A bench must never fail because its sidecar is unwritable.
    }
  });
}

inline void heading(const std::string& id, const std::string& title) {
  enable_metrics_sidecar(id);
  std::cout << "\n================================================================\n"
            << id << " — " << title << '\n'
            << "================================================================\n";
}

/// One paper-vs-measured comparison row.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit) {
  const double rel =
      paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-44s paper %10.4g %-5s measured %10.4g %-5s (%+.1f %%)\n",
              what.c_str(), paper, unit.c_str(), measured, unit.c_str(),
              rel);
}

/// Number of claims this process has printed as [MISS].
inline int& claim_misses() {
  static int misses = 0;
  return misses;
}

/// A qualitative reproduction claim.  A [MISS] makes the bench fail
/// (exit_status below), so a lost reproduction fails ctest's `claims`
/// label instead of scrolling past.
inline void claim(const std::string& what, bool holds) {
  std::printf("  %-60s [%s]\n", what.c_str(), holds ? "REPRODUCED" : "MISS");
  if (!holds) ++claim_misses();
}

/// A bench's process exit status: its own `status` if non-zero, else 1
/// when any claim missed, else 0.
inline int exit_status(int status = 0) {
  if (status != 0) return status;
  return claim_misses() > 0 ? 1 : 0;
}

}  // namespace sttram::bench
