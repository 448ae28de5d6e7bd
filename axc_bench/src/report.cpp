// Statistics, process resource readings and the span log writer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace axc_bench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::int64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(t.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the process
  // image that exec replaced, so a launcher's footprint would leak in.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool TraceLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (const SpanRecord& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns
        << ", \"parent\": " << span.parent << ", \"request\": "
        << span.request << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace axc_bench
