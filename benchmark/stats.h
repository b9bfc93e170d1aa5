// Timing, percentiles and process counters owned by the benchmark (it
// deliberately shares none of the engine's own helpers, so a change to
// those cannot silently change how the benchmark measures).
#ifndef PDTBENCH_STATS_H_
#define PDTBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pdtbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (p in (0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Heap bytes currently allocated (malloc'd and not freed), in MB.
double HeapInUseMb();

/// Name of the filesystem holding `path` ("ext4", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

}  // namespace pdtbench

#endif  // PDTBENCH_STATS_H_
