// Liveness / readiness model behind the admin server's /healthz and
// /readyz endpoints.
//
// Long-running stages (the parallel pipeline, the online detector, a
// capture loop) register a named Component once and then heartbeat() it
// from their hot loop. A heartbeat is two relaxed atomic stores plus one
// monotonic clock read — cheap enough to call every few thousand packets.
// Nothing runs in the background: the watchdog is evaluated at read time
// (snapshot()/to_json()), using an injectable microsecond clock, so tests
// drive stale-heartbeat transitions with a manual clock and no sleeps.
//
// State machine per component (age = now - last heartbeat):
//
//   healthy  --age >= degraded_after-->  degraded
//   degraded --age >= unhealthy_after--> unhealthy
//   any      --heartbeat()-->            healthy
//   any      --set_idle(true)-->         healthy ("idle": exempt)
//
// A component that finished its work cleanly calls set_idle(true) so a
// drained pipeline does not decay to unhealthy while the process keeps
// serving /metrics. Readiness is explicit: set_ready(true) once the
// component can do useful work; /readyz is 200 only when every component
// is ready.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/time.hpp"

namespace quicsand::obs {

enum class HealthState : std::uint8_t { kHealthy, kDegraded, kUnhealthy };

[[nodiscard]] const char* health_state_name(HealthState state);

class Health {
 public:
  /// Monotonic microsecond clock; the default measures steady time since
  /// the Health instance was constructed. Tests inject a manual clock.
  using Clock = std::function<std::uint64_t()>;

  Health();
  explicit Health(Clock clock);

  Health(const Health&) = delete;
  Health& operator=(const Health&) = delete;

  class Component {
   public:
    /// Mark the component alive now. Wait-free (relaxed stores).
    void heartbeat() noexcept {
      last_beat_us_.store(owner_->now_us(), std::memory_order_relaxed);
      beats_.fetch_add(1, std::memory_order_relaxed);
    }
    /// Readiness is sticky until changed; components start not ready.
    void set_ready(bool ready) noexcept {
      ready_.store(ready, std::memory_order_relaxed);
    }
    /// Idle components are exempt from the staleness watchdog (a stage
    /// that drained its input is healthy, just quiet).
    void set_idle(bool idle) noexcept {
      idle_.store(idle, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t beats() const noexcept {
      return beats_.load(std::memory_order_relaxed);
    }

    /// Constructed by Health::component(); public only so the deque's
    /// allocator can emplace it in place (atomics make it immovable).
    Component(Health* owner, std::string name,
              util::Duration degraded_after, util::Duration unhealthy_after);

   private:
    friend class Health;

    Health* owner_;
    std::string name_;
    std::uint64_t degraded_after_us_;
    std::uint64_t unhealthy_after_us_;
    std::atomic<std::uint64_t> last_beat_us_;
    std::atomic<std::uint64_t> beats_{0};
    std::atomic<bool> ready_{false};
    std::atomic<bool> idle_{false};
  };

  /// Get-or-create by name; the reference stays valid for the Health
  /// instance's lifetime. Thresholds are fixed at first registration.
  /// Registration counts as the first heartbeat.
  Component& component(
      const std::string& name,
      util::Duration degraded_after = 10 * util::kSecond,
      util::Duration unhealthy_after = 60 * util::kSecond);

  struct ComponentStatus {
    std::string name;
    HealthState state = HealthState::kHealthy;
    bool ready = false;
    bool idle = false;
    std::uint64_t beats = 0;
    std::uint64_t age_us = 0;  ///< microseconds since the last heartbeat
  };

  struct Snapshot {
    HealthState overall = HealthState::kHealthy;  ///< worst component
    bool ready = true;  ///< every component ready (vacuously true)
    std::vector<ComponentStatus> components;  ///< registration order
  };

  /// Evaluate the watchdog against the clock now.
  [[nodiscard]] Snapshot snapshot() const;

  /// {"status": "...", "ready": bool, "components": [...]} — the
  /// /healthz body. Deterministic given a manual clock.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::uint64_t now_us() const { return clock_(); }

 private:
  Clock clock_;
  mutable util::Mutex mutex_{util::LockRank::kHealth, "health"};
  /// Guarded registration list; deque => stable references, so a
  /// Component& handed out by component() safely escapes the lock (its
  /// mutators are all relaxed atomics).
  std::deque<Component> components_ QS_GUARDED_BY(mutex_);
};

}  // namespace quicsand::obs
