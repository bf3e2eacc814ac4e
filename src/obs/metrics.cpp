#include "obs/metrics.hpp"

#include <functional>
#include <sstream>
#include <thread>

namespace subg::obs {

std::string Snapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge " << name << ' ' << value << '\n';
  }
  for (const auto& [name, span] : spans) {
    os << "span " << name << ' ' << span.count << ' ' << span.seconds << '\n';
  }
  return os.str();
}

Metrics::Shard& Metrics::local_shard() {
  // Thread-id hashing pins each thread to one shard for its lifetime, so a
  // parallel lane's updates serialize only against collect() and the rare
  // hash-colliding lane.
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shards_[h % kShards];
}

void Metrics::add(std::string_view name, std::uint64_t delta) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.counters[std::string(name)] += delta;
}

void Metrics::gauge(std::string_view name, double value) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [it, inserted] = shard.gauges.try_emplace(std::string(name), value);
  if (!inserted && value > it->second) it->second = value;
}

void Metrics::span_add(std::string_view name, double seconds) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  Snapshot::Span& span = shard.spans[std::string(name)];
  ++span.count;
  span.seconds += seconds;
}

Snapshot Metrics::collect() const {
  Snapshot out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, value] : shard.counters) {
      out.counters[name] += value;
    }
    for (const auto& [name, value] : shard.gauges) {
      auto [it, inserted] = out.gauges.try_emplace(name, value);
      if (!inserted && value > it->second) it->second = value;
    }
    for (const auto& [name, span] : shard.spans) {
      Snapshot::Span& total = out.spans[name];
      total.count += span.count;
      total.seconds += span.seconds;
    }
  }
  return out;
}

}  // namespace subg::obs
