// Human-readable latency exporter for the metrics registry, rendered with
// the same box-drawn tables the paper benches use.
#pragma once

#include <string_view>

#include "report/table.h"

namespace decam::obs {

/// Latency summary of every registry histogram whose name starts with
/// `prefix` (empty = all). Rows are ordered by the paper's Table 7 cost
/// ranking — csp before mse before ssim — then lexicographically, so the
/// per-detector view lines up with the paper's presentation.
report::Table latency_table_by_prefix(std::string_view prefix = {});

/// Table-7 cost rank of a metric name: csp=0, mse=1, ssim=2, other=3.
int table7_rank(std::string_view metric_name);

}  // namespace decam::obs
