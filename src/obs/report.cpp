#include "obs/report.h"

#include <algorithm>

#include "obs/metrics.h"

namespace decam::obs {

int table7_rank(std::string_view metric_name) {
  if (metric_name.find("csp") != std::string_view::npos) return 0;
  if (metric_name.find("mse") != std::string_view::npos) return 1;
  if (metric_name.find("ssim") != std::string_view::npos) return 2;
  return 3;
}

report::Table latency_table_by_prefix(std::string_view prefix) {
  auto entries = MetricsRegistry::instance().histograms();
  std::erase_if(entries, [&](const auto& entry) {
    return entry.second->count() == 0 ||
           entry.first.compare(0, prefix.size(), prefix) != 0;
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              const int ra = table7_rank(a.first);
              const int rb = table7_rank(b.first);
              return ra != rb ? ra < rb : a.first < b.first;
            });
  report::Table table(
      {"metric", "count", "p50 ms", "p95 ms", "p99 ms", "max ms", "total ms"});
  for (const auto& [name, histogram] : entries) {
    table.add_row({name, std::to_string(histogram->count()),
                   report::format_double(histogram->percentile(50.0)),
                   report::format_double(histogram->percentile(95.0)),
                   report::format_double(histogram->percentile(99.0)),
                   report::format_double(histogram->max_ms()),
                   report::format_double(histogram->sum_ms())});
  }
  return table;
}

}  // namespace decam::obs
