#include "sttram/engine/controller/channel.hpp"

#include <string>

namespace sttram::engine {

const char* to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kFcfs:
      return "fcfs";
    case SchedulingPolicy::kReadPriority:
      return "read-priority";
    case SchedulingPolicy::kFrFcfs:
      return "frfcfs";
  }
  return "?";
}

}  // namespace sttram::engine

namespace sttram::engine::controller {

namespace {
/// Key of an idle bank: +inf orders after every real finish time.
constexpr std::uint64_t kIdleKey =
    0x7ff0000000000000ULL;  // bit pattern of +infinity
}  // namespace

bool parse_scheduler(const std::string& name, SchedulingPolicy& policy) {
  if (name == "fcfs") {
    policy = SchedulingPolicy::kFcfs;
    return true;
  }
  if (name == "frfcfs") {
    policy = SchedulingPolicy::kFrFcfs;
    return true;
  }
  return false;
}

void ChannelSim::Ring::push_back(Entry&& entry) {
  if (count == slots.size()) {
    // Grow to the next power of two and linearize so the mask stays
    // valid; queues are short, so this happens a handful of times.
    std::vector<Entry> grown;
    grown.reserve(slots.empty() ? 8 : slots.size() * 2);
    for (std::size_t i = 0; i < count; ++i) {
      grown.push_back(std::move(slots[(head + i) & (slots.size() - 1)]));
    }
    grown.resize(grown.capacity());
    slots = std::move(grown);
    head = 0;
  }
  slots[(head + count) & (slots.size() - 1)] = std::move(entry);
  ++count;
}

ChannelSim::Entry ChannelSim::Ring::take(std::size_t i) {
  Entry entry = std::move(at(i));
  for (std::size_t j = i; j + 1 < count; ++j) at(j) = std::move(at(j + 1));
  --count;
  return entry;
}

ChannelSim::ChannelSim(const ChannelConfig& config) : config_(config) {
  require(config.banks > 0, "ChannelSim: need at least one bank");
  require(config.timing.t_read.value() > 0.0 &&
              config.timing.t_write.value() > 0.0,
          "ChannelSim: RD/WR occupancies must be > 0");
  banks_.resize(config.banks);
  key_.assign(config.banks, kIdleKey);
}

}  // namespace sttram::engine::controller
