#include "src/storage/stats.h"

#include <cmath>

#include "src/common/strings.h"

namespace gluenail {

void ColumnNdvSketch::Observe(TermId value) {
  // TermIds are small dense integers: unmixed, adjacent ids would land in
  // adjacent bits and the occupancy model would not hold.
  uint32_t bit = static_cast<uint32_t>(Mix64(value)) & (kBits - 1);
  uint64_t word = words_[bit / 64];
  uint64_t mask = 1ull << (bit % 64);
  if ((word & mask) == 0) {
    words_[bit / 64] = word | mask;
    ++set_bits_;
  }
}

double ColumnNdvSketch::Estimate() const {
  if (set_bits_ == 0) return 0;
  uint32_t empty = kBits - set_bits_;
  if (empty == 0) {
    // Bitmap saturated: report the model's limit for one empty bit, the
    // largest value linear counting can distinguish at this width (~34k).
    empty = 1;
  }
  double b = static_cast<double>(kBits);
  return b * std::log(b / static_cast<double>(empty));
}

void ColumnNdvSketch::Clear() {
  words_.fill(0);
  set_bits_ = 0;
}

CardEstimate RelationStats::Estimate() const {
  CardEstimate out;
  out.rows = static_cast<double>(rows_);
  out.ndv.reserve(columns_.size());
  for (const auto& sketch : columns_) {
    double d = sketch.Estimate();
    if (rows_ > 0) {
      if (d < 1.0) d = 1.0;
      if (d > out.rows) d = out.rows;
    } else {
      d = 0;
    }
    out.ndv.push_back(d);
  }
  return out;
}

}  // namespace gluenail
