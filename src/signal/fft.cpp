#include "signal/fft.h"

#include "common/error.h"

namespace decam {

void fft(std::vector<Complex>& data, bool inverse) {
  DECAM_REQUIRE(!data.empty(), "fft of empty signal");
  if (data.size() == 1) return;
  const PlannedFft plan(data.size(), inverse);
  plan(data.data());
}

}  // namespace decam
