#include "src/common/context.hpp"

#include <algorithm>
#include <cmath>

namespace tcevd {

double Telemetry::recorded_flops() const noexcept {
  double total = 0.0;
  for (const auto& s : shapes_) total += s.flops();
  return total;
}

namespace {

/// Histogram bucket of one sample (see Telemetry::StageStat).
int stage_bucket(double seconds) noexcept {
  double us = seconds * 1e6;
  int idx = 0;
  while (idx + 1 < Telemetry::kStageBuckets && us >= 2.0) {
    us *= 0.5;
    ++idx;
  }
  return idx;
}

/// The entry named `name` in `stages`, or nullptr.
template <class Stages>
auto* find_stage(Stages& stages, std::string_view name) noexcept {
  auto it = std::find_if(stages.begin(), stages.end(),
                         [&](const Telemetry::StageStat& s) { return s.name == name; });
  return it == stages.end() ? nullptr : &*it;
}

}  // namespace

void Telemetry::record_stage(std::string_view stage, double seconds) {
  seconds = std::max(seconds, 0.0);
  StageStat* s = find_stage(stages_, stage);
  if (s == nullptr) {
    s = &stages_.emplace_back();
    s->name = std::string(stage);
    s->min_s = seconds;
  }
  s->seconds += seconds;
  ++s->calls;
  s->min_s = std::min(s->min_s, seconds);
  s->max_s = std::max(s->max_s, seconds);
  ++s->buckets[static_cast<std::size_t>(stage_bucket(seconds))];
}

double Telemetry::stage_seconds(std::string_view stage) const noexcept {
  const StageStat* s = find_stage(stages_, stage);
  return s != nullptr ? s->seconds : 0.0;
}

double Telemetry::stage_quantile(std::string_view stage, double q) const noexcept {
  const StageStat* s = find_stage(stages_, stage);
  if (s == nullptr) return 0.0;
  q = q > 0.0 ? std::min(q, 1.0) : 0.0;  // NaN fails q > 0.0
  const long target = std::max<long>(1, static_cast<long>(q * static_cast<double>(s->calls) + 0.5));
  long seen = 0;
  for (int b = 0; b < kStageBuckets; ++b) {
    seen += s->buckets[static_cast<std::size_t>(b)];
    // Upper edge of bucket b: 2^(b+1) microseconds, clamped to the observed
    // maximum so the estimate never exceeds reality.
    if (seen >= target) return std::min(std::ldexp(1.0, b + 1) * 1e-6, s->max_s);
  }
  return s->max_s;
}

void Telemetry::record_recovery(const RecoveryLog& log) {
  recovery_.insert(recovery_.end(), log.begin(), log.end());
}

void Telemetry::merge_from(const Telemetry& other) {
  shapes_.insert(shapes_.end(), other.shapes_.begin(), other.shapes_.end());
  for (const StageStat& s : other.stages_) {
    StageStat* mine = find_stage(stages_, s.name);
    if (mine == nullptr) {
      stages_.push_back(s);
      continue;
    }
    mine->seconds += s.seconds;
    mine->calls += s.calls;
    mine->min_s = std::min(mine->min_s, s.min_s);
    mine->max_s = std::max(mine->max_s, s.max_s);
    for (std::size_t b = 0; b < mine->buckets.size(); ++b) mine->buckets[b] += s.buckets[b];
  }
  recovery_.insert(recovery_.end(), other.recovery_.begin(), other.recovery_.end());
}

}  // namespace tcevd
