// Wall-clock timing utilities.
//
// Timer measures a single interval. StageTimes aggregates per-stage wall
// time for the five SpTC stages the paper reports (Fig. 2): input
// processing, index search, accumulation, writeback, output sorting.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace sparta {

/// Simple steady-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds since construction or the last reset() or lap(), and starts
  /// the next interval at the same reading: back-to-back intervals share
  /// their boundary read.
  double lap() {
    const clock::time_point now = clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

  /// Seconds elapsed since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Nanoseconds elapsed since construction or last reset().
  [[nodiscard]] std::int64_t nanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                start_)
        .count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// The five pipeline stages of an SpTC (paper §3.1).
enum class Stage : int {
  kInputProcessing = 0,
  kIndexSearch = 1,
  kAccumulation = 2,
  kWriteback = 3,
  kOutputSorting = 4,
};

inline constexpr int kNumStages = 5;

/// Human-readable stage name matching the paper's terminology.
[[nodiscard]] constexpr std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::kInputProcessing:
      return "input_processing";
    case Stage::kIndexSearch:
      return "index_search";
    case Stage::kAccumulation:
      return "accumulation";
    case Stage::kWriteback:
      return "writeback";
    case Stage::kOutputSorting:
      return "output_sorting";
  }
  return "unknown";
}

/// Per-stage elapsed seconds for one contraction run.
struct StageTimes {
  std::array<double, kNumStages> seconds{};

  // Deliberately not [[nodiscard]]: the mutable overload exists to be
  // written through (`times[Stage::kWriteback] = t;`), and a nodiscard
  // here flags every such assignment.
  double& operator[](Stage s) { return seconds[static_cast<int>(s)]; }
  [[nodiscard]] double operator[](Stage s) const {
    return seconds[static_cast<int>(s)];
  }

  [[nodiscard]] double total() const {
    double t = 0.0;
    for (double s : seconds) t += s;
    return t;
  }

  /// Fraction of total time spent in stage `s`; 0 when total is 0.
  [[nodiscard]] double fraction(Stage s) const {
    const double t = total();
    return t > 0.0 ? (*this)[s] / t : 0.0;
  }

  StageTimes& operator+=(const StageTimes& o) {
    for (int i = 0; i < kNumStages; ++i) seconds[i] += o.seconds[i];
    return *this;
  }

  /// JSON object mapping each stage_name() to its elapsed seconds —
  /// the shared shape of the bench --json "stages" field and the
  /// SPARTA_METRICS "sections" export.
  [[nodiscard]] std::string to_json() const {
    obs::JsonWriter w;
    w.begin_object();
    for (int i = 0; i < kNumStages; ++i) {
      w.key(stage_name(static_cast<Stage>(i))).value(seconds[i]);
    }
    w.end_object();
    return w.str();
  }
};

}  // namespace sparta
