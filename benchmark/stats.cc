#include "stats.h"

#include <malloc.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pdtbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p of the sample at
  // or below it.
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs{};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(fs.f_type));
  return buf;
}

}  // namespace pdtbench
