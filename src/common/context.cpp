#include "src/common/context.hpp"

#include <algorithm>
#include <cmath>

namespace tcevd {

double Telemetry::recorded_flops() const noexcept {
  double total = 0.0;
  for (const auto& s : shapes_) total += s.flops();
  return total;
}

void Telemetry::record_stage(std::string_view stage, double seconds) {
  for (auto& s : stages_) {
    if (s.name == stage) {
      s.seconds += seconds;
      ++s.calls;
      return;
    }
  }
  stages_.push_back(StageStat{std::string(stage), seconds, 1});
}

double Telemetry::stage_seconds(std::string_view stage) const noexcept {
  for (const auto& s : stages_)
    if (s.name == stage) return s.seconds;
  return 0.0;
}

namespace {

/// log2 microsecond bucket of one latency sample (see Telemetry::LatencyStat).
int latency_bucket(double seconds) noexcept {
  double us = seconds * 1e6;
  int idx = 0;
  while (idx + 1 < Telemetry::kLatencyBuckets && us >= 2.0) {
    us *= 0.5;
    ++idx;
  }
  return idx;
}

}  // namespace

void Telemetry::record_latency(std::string_view name, double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  for (auto& l : latencies_) {
    if (l.name == name) {
      ++l.count;
      l.sum_s += seconds;
      l.min_s = std::min(l.min_s, seconds);
      l.max_s = std::max(l.max_s, seconds);
      ++l.buckets[static_cast<std::size_t>(latency_bucket(seconds))];
      return;
    }
  }
  LatencyStat stat;
  stat.name = std::string(name);
  stat.count = 1;
  stat.sum_s = seconds;
  stat.min_s = seconds;
  stat.max_s = seconds;
  ++stat.buckets[static_cast<std::size_t>(latency_bucket(seconds))];
  latencies_.push_back(std::move(stat));
}

double Telemetry::latency_quantile(std::string_view name, double q) const noexcept {
  for (const auto& l : latencies_) {
    if (l.name != name) continue;
    if (l.count == 0) return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    const long target = std::max<long>(1, static_cast<long>(q * static_cast<double>(l.count) + 0.5));
    long seen = 0;
    for (int b = 0; b < kLatencyBuckets; ++b) {
      seen += l.buckets[static_cast<std::size_t>(b)];
      if (seen >= target) {
        // Upper edge of bucket b: 2^(b+1) microseconds, clamped to the
        // observed maximum so the estimate never exceeds reality.
        const double edge_s = std::ldexp(1.0, b + 1) * 1e-6;
        return std::min(edge_s, l.max_s);
      }
    }
    return l.max_s;
  }
  return 0.0;
}

void Telemetry::record_recovery(const RecoveryLog& log) {
  recovery_.insert(recovery_.end(), log.begin(), log.end());
}

void Telemetry::merge_from(const Telemetry& other) {
  shapes_.insert(shapes_.end(), other.shapes_.begin(), other.shapes_.end());
  for (const StageStat& s : other.stages_) {
    bool found = false;
    for (StageStat& mine : stages_) {
      if (mine.name == s.name) {
        mine.seconds += s.seconds;
        mine.calls += s.calls;
        found = true;
        break;
      }
    }
    if (!found) stages_.push_back(s);
  }
  for (const LatencyStat& l : other.latencies_) {
    bool found = false;
    for (LatencyStat& mine : latencies_) {
      if (mine.name == l.name) {
        if (mine.count == 0)
          mine.min_s = l.min_s;
        else if (l.count > 0)
          mine.min_s = std::min(mine.min_s, l.min_s);
        mine.count += l.count;
        mine.sum_s += l.sum_s;
        mine.max_s = std::max(mine.max_s, l.max_s);
        for (int b = 0; b < kLatencyBuckets; ++b)
          mine.buckets[static_cast<std::size_t>(b)] += l.buckets[static_cast<std::size_t>(b)];
        found = true;
        break;
      }
    }
    if (!found) latencies_.push_back(l);
  }
  recovery_.insert(recovery_.end(), other.recovery_.begin(), other.recovery_.end());
}

}  // namespace tcevd
