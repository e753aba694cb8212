// Runtime ISA selection for the SIMD kernel tables (common/simd.h).
//
// Resolution order, decided exactly once per process:
//   1. DECAM_SIMD=scalar|avx2 — explicit override. Requesting avx2 on a
//      build/host that cannot run it warns on stderr and falls back to
//      scalar (an override exists to pin behaviour, not to guess). Any
//      other value warns and keeps native dispatch.
//   2. Native detection: AVX2 via cpuid on x86-64 builds that carry the
//      AVX2 table.
//   3. Scalar (every other host, aarch64 included).
// The choice is exported as the `simd/dispatch` gauge (Isa enum value) so
// stats dumps and OpenMetrics scrapes record which core a run used.
#include "common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/simd_kernels.h"
#include "obs/metrics.h"

namespace decam::simd {
namespace {

bool cpu_has_avx2() {
#if defined(DECAM_SIMD_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const SimdOps* table_for(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return &detail::scalar_ops();
    case Isa::Avx2:
#ifdef DECAM_SIMD_HAVE_AVX2
      return &detail::avx2_ops();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool isa_runnable(Isa isa) {
  return isa == Isa::Scalar || (isa == Isa::Avx2 && cpu_has_avx2());
}

Isa native_isa() { return cpu_has_avx2() ? Isa::Avx2 : Isa::Scalar; }

void publish_isa(Isa isa) {
  obs::MetricsRegistry::instance()
      .gauge("simd/dispatch")
      .set(static_cast<double>(static_cast<int>(isa)));
}

Isa resolve_startup_isa() {
  Isa isa = native_isa();
  if (const char* env = std::getenv("DECAM_SIMD"); env && *env) {
    if (std::strcmp(env, "scalar") == 0) {
      isa = Isa::Scalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      if (isa_runnable(Isa::Avx2)) {
        isa = Isa::Avx2;
      } else {
        std::fprintf(stderr,
                     "decam: DECAM_SIMD=%s not available on this host/build, "
                     "using scalar\n",
                     env);
        isa = Isa::Scalar;
      }
    } else {
      std::fprintf(stderr,
                   "decam: unknown DECAM_SIMD value '%s' "
                   "(want scalar|avx2), using native dispatch\n",
                   env);
    }
  }
  publish_isa(isa);
  return isa;
}

struct ActiveTable {
  std::atomic<const SimdOps*> ops;
  std::atomic<int> isa;
  ActiveTable() {
    const Isa startup = resolve_startup_isa();
    ops.store(table_for(startup), std::memory_order_relaxed);
    isa.store(static_cast<int>(startup), std::memory_order_relaxed);
  }
};

ActiveTable& active() {
  static ActiveTable table;
  return table;
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return "scalar";
    case Isa::Avx2:
      return "avx2";
  }
  return "unknown";
}

const SimdOps& ops() {
  return *active().ops.load(std::memory_order_relaxed);
}

Isa active_isa() {
  return static_cast<Isa>(active().isa.load(std::memory_order_relaxed));
}

Isa set_active_isa(Isa isa) {
  ActiveTable& table = active();
  const Isa previous =
      static_cast<Isa>(table.isa.load(std::memory_order_relaxed));
  if (!isa_runnable(isa)) isa = Isa::Scalar;
  table.ops.store(table_for(isa), std::memory_order_relaxed);
  table.isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  publish_isa(isa);
  return previous;
}

bool native_available() { return native_isa() != Isa::Scalar; }

}  // namespace decam::simd
