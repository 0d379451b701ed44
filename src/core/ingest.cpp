#include "core/ingest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace trustrate::core {

const char* to_string(IngestClass c) {
  switch (c) {
    case IngestClass::kAccepted:  return "accepted";
    case IngestClass::kReordered: return "reordered";
    case IngestClass::kDuplicate: return "duplicate";
    case IngestClass::kLate:      return "late";
    case IngestClass::kMalformed: return "malformed";
  }
  return "unknown";
}

IngestBuffer::IngestBuffer(IngestConfig config) : config_(config) {
  TRUSTRATE_EXPECTS(config_.max_lateness_days >= 0.0 &&
                        std::isfinite(config_.max_lateness_days),
                    "lateness bound must be finite and >= 0");
}

double IngestBuffer::watermark() const {
  if (!anchored_) return -std::numeric_limits<double>::infinity();
  return max_time_ - config_.max_lateness_days;
}

void IngestBuffer::quarantine_rating(const Rating& rating, IngestClass reason,
                                     std::string detail) {
  ++stats_.quarantined;
  if (quarantine_sink_) {
    quarantine_sink_({rating, reason, std::move(detail)});
    return;
  }
  quarantine_.push_back({rating, reason, std::move(detail)});
  while (quarantine_.size() > config_.max_quarantine) quarantine_.pop_front();
}

IngestClass IngestBuffer::submit(const Rating& rating,
                                 std::vector<Rating>& released) {
  ++stats_.submitted;

  // Validation: classify, never throw.
  if (!std::isfinite(rating.time) || !std::isfinite(rating.value)) {
    ++stats_.malformed;
    quarantine_rating(rating, IngestClass::kMalformed, "non-finite time or value");
    return IngestClass::kMalformed;
  }
  if (rating.value < 0.0 || rating.value > 1.0) {
    ++stats_.malformed;
    quarantine_rating(rating, IngestClass::kMalformed,
                      "value " + std::to_string(rating.value) + " outside [0,1]");
    return IngestClass::kMalformed;
  }

  // Lateness: behind the watermark means the reorder window already closed.
  const double mark = watermark();
  if (anchored_ && rating.time < mark) {
    ++stats_.dropped_late;
    quarantine_rating(rating, IngestClass::kLate,
                      "time " + std::to_string(rating.time) +
                          " behind watermark " + std::to_string(mark));
    return IngestClass::kLate;
  }

  // Duplicate: exact resubmission inside the lateness horizon.
  if (!seen_.insert(rating, mark)) {
    ++stats_.duplicates;
    return IngestClass::kDuplicate;
  }

  ++stats_.accepted;
  const bool out_of_order = anchored_ && rating.time < max_time_;
  if (out_of_order) ++stats_.reordered;

  buffer_insert(rating);
  if (!anchored_ || rating.time > max_time_) {
    anchored_ = true;
    max_time_ = rating.time;
  }
  release_ready(released);
  return out_of_order ? IngestClass::kReordered : IngestClass::kAccepted;
}

void IngestBuffer::buffer_insert(const Rating& rating) {
  if (head_ == buffer_.size() || rating.time >= buffer_.back().time) {
    buffer_.push_back(rating);  // the common, in-order case
    return;
  }
  const auto pos = std::upper_bound(
      buffer_.begin() + static_cast<std::ptrdiff_t>(head_), buffer_.end(),
      rating.time, [](double t, const Rating& r) { return t < r.time; });
  buffer_.insert(pos, rating);
}

void IngestBuffer::release_ready(std::vector<Rating>& released) {
  const double mark = watermark();
  while (head_ < buffer_.size() && buffer_[head_].time <= mark) {
    released.push_back(buffer_[head_++]);
  }
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (head_ >= buffer_.size() - head_) {
    // Moving the rest costs no more than the releases since the last
    // compaction: amortized O(1) per rating, and the capacity stays.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void IngestBuffer::drain(std::vector<Rating>& released) {
  released.insert(released.end(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
                  buffer_.end());
  buffer_.clear();
  head_ = 0;
}

IngestBuffer::State IngestBuffer::snapshot() const {
  State state;
  state.stats = stats_;
  state.anchored = anchored_;
  state.max_time = max_time_;
  state.buffer.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
                      buffer_.end());
  state.seen = seen_.live_keys(watermark());
  state.quarantine.assign(quarantine_.begin(), quarantine_.end());
  return state;
}

void IngestBuffer::restore(const State& state) {
  stats_ = state.stats;
  anchored_ = state.anchored;
  max_time_ = state.max_time;
  buffer_ = state.buffer;
  head_ = 0;
  // A well-formed snapshot is already in order; a stable sort by time is
  // the order inserting its entries one by one would have produced.
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const Rating& a, const Rating& b) { return a.time < b.time; });
  seen_.clear();
  const double mark = watermark();
  for (const auto& [time, rater, product, value] : state.seen) {
    if (std::isnan(time) || time < mark) continue;  // never observable
    seen_.insert({time, value, rater, product, RatingLabel::kHonest}, mark);
  }
  quarantine_.assign(state.quarantine.begin(), state.quarantine.end());
}

// ---------------------------------------------------------------- Horizon

namespace {

constexpr std::size_t kMinHorizonSlots = 64;
constexpr double kEmptyTime = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

}  // namespace

std::size_t IngestBuffer::Horizon::home(const Slot& key) const {
  // Adding +0.0 turns -0.0 into +0.0: keys equal under == hash alike.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = bits_of(key.time + 0.0) * kMul;
  h = (h ^ (h >> 32) ^ bits_of(key.value + 0.0)) * kMul;
  h = (h ^ (h >> 32) ^ ((std::uint64_t{key.rater} << 32) | key.product)) *
      kMul;
  return static_cast<std::size_t>(h >> shift_);
}

bool IngestBuffer::Horizon::insert(const Rating& rating, double mark) {
  if (2 * (used_ + 1) > slots_.size()) rebuild(mark);
  const Slot key{rating.time, rating.value, rating.rater, rating.product};
  const std::size_t mask = slots_.size() - 1;
  Slot* reuse = nullptr;
  std::size_t i = home(key);
  for (;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (std::isnan(slot.time)) break;
    if (slot.time == key.time && slot.value == key.value &&
        slot.rater == key.rater && slot.product == key.product) {
      return false;
    }
    if (reuse == nullptr && slot.time < mark) reuse = &slot;
  }
  if (reuse == nullptr) {
    reuse = &slots_[i];
    ++used_;
  }
  *reuse = key;
  return true;
}

void IngestBuffer::Horizon::rebuild(double mark) {
  std::size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.time >= mark) ++live;  // false for empty (NaN) slots
  }
  // Load at most 1/4 after a rebuild and 1/2 before the next one, so a
  // rebuild is paid for by at least as many inserts as it moves.
  const std::size_t capacity =
      std::max(kMinHorizonSlots, std::bit_ceil(4 * (live + 1)));
  spare_.assign(capacity, Slot{kEmptyTime, 0.0, 0, 0});
  const std::size_t mask = capacity - 1;
  shift_ = static_cast<unsigned>(64 - std::countr_zero(capacity));
  for (const Slot& slot : slots_) {
    if (!(slot.time >= mark)) continue;
    std::size_t i = home(slot);
    while (!std::isnan(spare_[i].time)) i = (i + 1) & mask;
    spare_[i] = slot;
  }
  slots_.swap(spare_);
  used_ = live;
}

std::vector<IngestBuffer::SeenKey> IngestBuffer::Horizon::live_keys(
    double mark) const {
  std::vector<SeenKey> keys;
  for (const Slot& slot : slots_) {
    if (slot.time >= mark) {
      keys.emplace_back(slot.time, slot.rater, slot.product, slot.value);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void IngestBuffer::Horizon::clear() {
  slots_.clear();
  used_ = 0;
  shift_ = 64;
}

}  // namespace trustrate::core
