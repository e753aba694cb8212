// Runtime ISA selection for the SIMD kernel tables (common/simd.h).
//
// Resolution order, decided exactly once per process:
//   1. DECAM_SIMD=scalar|avx2|avx512 — explicit override. Requesting a
//      table this build/host cannot run warns on stderr and falls back to
//      scalar (an override exists to pin behaviour, not to guess). Any
//      other value warns and keeps native dispatch.
//   2. Native detection on x86-64 builds that carry the vector tables:
//      AVX-512 when cpuid reports AVX-512F (and AVX2, whose entries the
//      AVX-512 table shares), else AVX2 when cpuid reports it.
//      __builtin_cpu_supports also checks that the OS saves the register
//      state (XCR0), so a kernel that does not save ZMM gets AVX2.
//   3. Scalar (every other host, aarch64 included).
// The choice is exported as the `simd/dispatch` gauge (Isa enum value) so
// stats dumps and OpenMetrics scrapes record which core a run used.
#include "common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/simd_kernels.h"
#include "obs/metrics.h"

namespace decam::simd {
namespace {

bool cpu_has_avx2() {
#if defined(DECAM_SIMD_HAVE_X86) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(DECAM_SIMD_HAVE_X86) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") && cpu_has_avx2();
#else
  return false;
#endif
}

const SimdOps* table_for(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return &detail::scalar_ops();
#ifdef DECAM_SIMD_HAVE_X86
    case Isa::Avx2:
      return &detail::avx2_ops();
    case Isa::Avx512:
      return &detail::avx512_ops();
#else
    case Isa::Avx2:
    case Isa::Avx512:
      return nullptr;
#endif
  }
  return nullptr;
}

Isa native_isa() {
  if (cpu_has_avx512()) return Isa::Avx512;
  return cpu_has_avx2() ? Isa::Avx2 : Isa::Scalar;
}

void publish_isa(Isa isa) {
  obs::MetricsRegistry::instance()
      .gauge("simd/dispatch")
      .set(static_cast<double>(static_cast<int>(isa)));
}

std::optional<Isa> isa_named(const char* name) {
  for (const Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    if (std::strcmp(name, to_string(isa)) == 0) return isa;
  }
  return std::nullopt;
}

Isa resolve_startup_isa() {
  Isa isa = native_isa();
  if (const char* env = std::getenv("DECAM_SIMD"); env && *env) {
    if (const std::optional<Isa> named = isa_named(env); !named) {
      std::fprintf(stderr,
                   "decam: unknown DECAM_SIMD value '%s' "
                   "(want scalar|avx2|avx512), using native dispatch\n",
                   env);
    } else if (runnable(*named)) {
      isa = *named;
    } else {
      std::fprintf(stderr,
                   "decam: DECAM_SIMD=%s not available on this host/build, "
                   "using scalar\n",
                   env);
      isa = Isa::Scalar;
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
    case Isa::Avx512:
      return "avx512";
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
  if (!runnable(isa)) isa = Isa::Scalar;
  table.ops.store(table_for(isa), std::memory_order_relaxed);
  table.isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  publish_isa(isa);
  return previous;
}

bool runnable(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Avx2:
      return cpu_has_avx2();
    case Isa::Avx512:
      return cpu_has_avx512();
  }
  return false;
}

bool native_available() { return native_isa() != Isa::Scalar; }

}  // namespace decam::simd
