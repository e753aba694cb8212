// Measures the cost of the observability probes themselves, backing the
// "near-zero overhead when disabled" requirement (DESIGN.md §7): a disabled
// DECAM_SPAN must stay in the nanoseconds (one relaxed atomic load + branch)
// so instrumenting the imaging/signal kernels cannot shift the Table 7
// numbers, and the enabled paths (trace ring, profile tree, histograms)
// must stay cheap enough to leave on in production scans.
//
//   obs_overhead [--quick] [--json] [--out FILE] [--filter SUBSTR]
//                [--regress-against FILE]
//   obs_overhead --validate FILE
//
// Reports ns per probe operation (the harness' "pixel" is one probe hit).
// --json writes a `decam-kernel-bench-v1` document (default BENCH_obs.json;
// run from the repo root to refresh the committed baseline) plus the
// provenance manifest sidecar; --regress-against is the obs_bench_regression
// ctest tripwire, failing if any probe got more than 2x slower.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace {

using namespace decam;
using bench::micro::BenchResult;
using bench::micro::run_bench;

struct Options {
  bool quick = false;
  bool json = false;
  std::string out = "BENCH_obs.json";
  std::string filter;
  std::string validate;  // non-empty: validate this file and exit
  std::string regress;   // non-empty: compare against this baseline JSON
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      opt.filter = argv[++i];
    } else if (std::strcmp(argv[i], "--validate") == 0 && i + 1 < argc) {
      opt.validate = argv[++i];
    } else if (std::strcmp(argv[i], "--regress-against") == 0 &&
               i + 1 < argc) {
      opt.regress = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json] [--out FILE] "
                   "[--filter SUBSTR] [--regress-against FILE] | "
                   "--validate FILE\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

// Probe ops are nanoseconds each, far below the clock's resolution, so every
// iteration runs a batch and the harness normalises to ns per op.
constexpr std::size_t kOps = 65536;

// The optimiser must believe each probe hit has an observable effect.
inline void clobber() { asm volatile("" ::: "memory"); }

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.validate.empty()) {
    return bench::micro::validate_file("obs_overhead", opt.validate);
  }

  const double budget_ms = opt.quick ? 10.0 : 80.0;
  std::printf("obs_overhead: %zu probe ops per iteration%s\n\n", kOps,
              opt.quick ? " [quick]" : "");

  std::vector<BenchResult> results;
  // `ops` is the number of probe operations one iteration of `fn` performs —
  // the harness' "pixels" — so ns/px reads as ns per op for every entry.
  auto bench = [&](const std::string& name, std::size_t ops,
                   const std::function<void()>& fn) {
    if (!opt.filter.empty() && name.find(opt.filter) == std::string::npos) {
      return;
    }
    results.push_back(run_bench(name, ops, budget_ms, fn));
    bench::micro::print_result(results.back());
  };

  // --- spans: the disabled path is the one that gates Table 7 -------------
  obs::set_tracing_enabled(false);
  obs::set_profiling_enabled(false);
  bench("span/disabled", kOps, [] {
    for (std::size_t i = 0; i < kOps; ++i) {
      DECAM_SPAN("bench/disabled");
      clobber();
    }
  });

  obs::set_tracing_enabled(true);
  bench("span/tracing", kOps, [] {
    for (std::size_t i = 0; i < kOps; ++i) {
      DECAM_SPAN("bench/tracing");
      clobber();
    }
    // Keep the ring bounded so the bench measures the span, not vector
    // growth over millions of hits.
    if (obs::TraceBuffer::instance().size() > 100000) {
      obs::TraceBuffer::instance().clear();
    }
  });
  obs::set_tracing_enabled(false);
  obs::TraceBuffer::instance().clear();

  obs::set_profiling_enabled(true);
  bench("span/profiling", kOps, [] {
    for (std::size_t i = 0; i < kOps; ++i) {
      DECAM_SPAN("bench/profiling");
      clobber();
    }
  });
  obs::set_profiling_enabled(false);

  // --- metric primitives ---------------------------------------------------
  {
    obs::Counter counter;
    bench("counter/add", kOps, [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        counter.add();
        clobber();
      }
    });
  }
  {
    obs::Histogram histogram;
    bench("histogram/record", kOps, [&] {
      double ms = 0.0;
      for (std::size_t i = 0; i < kOps; ++i) {
        histogram.record(ms);
        ms += 0.1;
        if (ms > 1000.0) ms = 0.0;
      }
    });
  }
  bench("registry/lookup", kOps, [] {
    for (std::size_t i = 0; i < kOps; ++i) {
      (void)obs::MetricsRegistry::instance().histogram("bench/lookup");
      clobber();
    }
  });

  // The CAS-loop min/max/sum updates are the histogram's only write path,
  // so contention is the interesting case: every worker scoring images in
  // parallel records into the same "context/*" stage histograms. Measured
  // end to end through the runtime pool (dispatch included).
  {
    runtime::ThreadPool pool(4);
    obs::Histogram histogram;
    constexpr std::size_t kLanes = 4;
    bench("histogram/record_contended", kOps, [&] {
      runtime::parallel_for(pool, std::size_t{0}, kLanes,
                            [&](std::size_t lane) {
                              double ms = 0.1 * static_cast<double>(lane + 1);
                              for (std::size_t i = 0; i < kOps / kLanes; ++i) {
                                histogram.record(ms);
                                ms += 0.1;
                                if (ms > 1000.0) ms = 0.0;
                              }
                            });
    });
  }

  // --- read-side: exporters pay these, hot paths never do ------------------
  {
    obs::Histogram histogram;
    for (int i = 1; i <= 10000; ++i) histogram.record(i * 0.05);
    bench("histogram/percentile", kOps / 64, [&] {
      for (std::size_t i = 0; i < kOps / 64; ++i) {
        (void)histogram.percentile(99.0);
        clobber();
      }
    });
  }
  bench("export/openmetrics", kOps / 2048, [] {
    for (std::size_t i = 0; i < kOps / 2048; ++i) {
      (void)obs::export_openmetrics();
      clobber();
    }
  });

  if (opt.json) {
    const std::string doc = bench::micro::bench_json(results, opt.quick);
    const std::string error = bench::micro::validate_bench_json(doc);
    if (!error.empty()) {
      std::fprintf(stderr, "obs_overhead: refusing to write %s: %s\n",
                   opt.out.c_str(), error.c_str());
      return 1;
    }
    std::ofstream out(opt.out);
    if (!out) {
      std::fprintf(stderr, "obs_overhead: cannot write %s\n", opt.out.c_str());
      return 1;
    }
    out << doc;
    out.close();
    std::printf("\nwrote %s (%zu benchmarks)\n", opt.out.c_str(),
                results.size());

    bench::manifest::RunManifest manifest;
    manifest.binary = "obs_overhead";
    manifest.argv.assign(argv + 1, argv + argc);
    manifest.quick = opt.quick;
    std::string manifest_path = opt.out;
    const std::size_t dot = manifest_path.rfind(".json");
    manifest_path = dot == std::string::npos
                        ? manifest_path + ".manifest.json"
                        : manifest_path.substr(0, dot) + ".manifest.json";
    (void)bench::manifest::write_manifest(manifest, manifest_path);
  }
  if (!opt.regress.empty() &&
      bench::micro::check_regressions("obs_overhead", results, opt.regress) !=
          0) {
    return 1;
  }
  return 0;
}
