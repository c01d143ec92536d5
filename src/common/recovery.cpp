#include "src/common/recovery.hpp"

#include <utility>

namespace tcevd::recovery {

namespace {
thread_local Scope* g_top = nullptr;
}  // namespace

Scope::Scope() : parent_(g_top) { g_top = this; }

Scope::~Scope() {
  g_top = parent_;
  if (parent_ && !events_.empty()) {
    for (auto& e : events_) parent_->events_.push_back(std::move(e));
  }
}

RecoveryLog Scope::take() noexcept {
  RecoveryLog out = std::move(events_);
  events_.clear();
  return out;
}

void note(std::string site, std::string action) {
  if (g_top) g_top->events_.push_back(RecoveryEvent{std::move(site), std::move(action)});
}

}  // namespace tcevd::recovery
