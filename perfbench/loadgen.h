// Open-loop load generation for the fleet benchmark.
//
// Three pieces, each usable on its own and tested by loadgen_test.cc:
//
//   * PoissonSchedule — seeded exponential inter-arrival times. The
//     schedule is fixed up front: a stalled service does not slow it, so
//     requests due during a stall queue up and their latency shows it
//     (no coordinated omission).
//   * SendOnSchedule — the sender loop: waits for each due time, calls
//     the issue function, and records how late it ran (the generator's
//     own lateness, `loadgen.late_p99_ms`).
//   * Collector — the completion thread: polls every in-flight future and
//     timestamps each response the moment it is seen resolved, in
//     whatever order they resolve. An in-order collector would charge a
//     fast response for the slow one ahead of it.
//
// Latency is measured from the DUE time, not the send time, so both the
// service's queueing and the generator's own lateness count.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// SplitMix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Percentile (q in [0, 100]) by linear interpolation between closest
/// ranks. +inf samples (failed requests) sort last and count as missing
/// every limit. 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  if (lo + 1 >= samples.size()) return samples.back();
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return samples[lo];
  if (std::isinf(samples[lo + 1])) return samples[lo + 1];
  return samples[lo] + (samples[lo + 1] - samples[lo]) * frac;
}

/// Latency samples of one verb, each with the time it was due (seconds
/// from the start of the run). A failed request is recorded as +inf: it
/// misses every latency limit and pushes the percentiles up.
struct LatencyLog {
  std::vector<double> ms;
  std::vector<double> at_s;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Ok(double latency_ms, double due_s = 0.0) {
    ms.push_back(latency_ms);
    at_s.push_back(due_s);
    ++attempted;
  }
  void Failed(double due_s = 0.0) {
    ms.push_back(std::numeric_limits<double>::infinity());
    at_s.push_back(due_s);
    ++attempted;
    ++failed;
  }
  /// Percentile over every sample.
  double P(double q) const { return Percentile(ms, q); }

  /// The median, over consecutive `window_s`-second windows holding at
  /// least `min_samples` samples each, of the window's q-th percentile.
  /// One stalled second moves one window, not the result; a stall in most
  /// windows moves the result. Falls back to P(q) when no window
  /// qualifies.
  double WindowedP(double q, double window_s, size_t min_samples) const {
    std::map<int64_t, std::vector<double>> windows;
    for (size_t i = 0; i < ms.size(); ++i) {
      windows[static_cast<int64_t>(std::floor(at_s[i] / window_s))]
          .push_back(ms[i]);
    }
    std::vector<double> per_window;
    for (const auto& [index, samples] : windows) {
      if (samples.size() >= min_samples) {
        per_window.push_back(Percentile(samples, q));
      }
    }
    return per_window.empty() ? P(q) : Percentile(per_window, 50);
  }

};

/// Seeded Poisson arrivals at `rate_per_s`, starting at `start`.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, uint64_t seed, Clock::time_point start)
      : mean_gap_s_(1.0 / rate_per_s), rng_(seed), next_(start) {}

  /// Due time of the next arrival.
  Clock::time_point Next() {
    // 1 - U is in (0, 1], so the log is finite.
    const double gap = -std::log(1.0 - rng_.Uniform()) * mean_gap_s_;
    next_ += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap));
    return next_;
  }

 private:
  double mean_gap_s_;
  Rng rng_;
  Clock::time_point next_;
};

/// How long before a due time a wait stops sleeping and starts yielding.
constexpr Clock::duration kSpinBeforeDue = std::chrono::milliseconds(10);

/// Waits until `due`, calling `poll()` all the while; poll returns true
/// while it has work in flight that must be watched closely. The wait
/// sleeps only while more than kSpinBeforeDue remains and poll has nothing
/// in flight, then yields until the time comes: a plain sleep can wake up
/// milliseconds late on a virtualised host (see host.wakeup_late_p99_ms),
/// and that delay would be charged to every request.
template <typename Poll>
void WaitUntil(Clock::time_point due, Poll&& poll) {
  for (;;) {
    const bool watching = poll();
    const Clock::time_point now = Clock::now();
    if (now >= due) return;
    if (!watching && due - now > kSpinBeforeDue) {
      std::this_thread::sleep_until(due - kSpinBeforeDue);
    } else {
      std::this_thread::yield();
    }
  }
}

inline void WaitUntil(Clock::time_point due) {
  WaitUntil(due, [] { return false; });
}

/// The open-loop sender: for every due time of `schedule` before `end`,
/// waits for it (polling `poll` meanwhile, see WaitUntil) and calls
/// `issue(index, due)`. Returns how late each send started, in ms. A slow
/// `issue` makes later sends late; it never moves their due times.
template <typename Issue, typename Poll>
std::vector<double> SendOnSchedule(PoissonSchedule* schedule,
                                   Clock::time_point end, Issue&& issue,
                                   Poll&& poll) {
  std::vector<double> late_ms;
  for (uint64_t index = 0;; ++index) {
    const Clock::time_point due = schedule->Next();
    if (due >= end) break;
    WaitUntil(due, poll);
    late_ms.push_back(MillisBetween(due, Clock::now()));
    issue(index, due);
  }
  return late_ms;
}

/// The completion thread. `Meta` is whatever the caller needs to judge
/// the answer (verb, arguments, the epoch floor at send time).
template <typename Response, typename Meta>
class Collector {
 public:
  /// Called on the completion thread once per response, with the time
  /// the response was seen resolved.
  using OnDone = std::function<void(const Meta&, Clock::time_point due,
                                    Response response,
                                    Clock::time_point resolved)>;

  explicit Collector(OnDone on_done) : on_done_(std::move(on_done)) {}

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Hands one in-flight request to the completion thread (any thread).
  void Submit(Meta meta, Clock::time_point due,
              std::future<Response> response) {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back({std::move(meta), due, std::move(response)});
    has_inbox_.store(true, std::memory_order_release);
  }

  /// No more submissions: Run() returns once everything in flight has
  /// resolved.
  void Close() { closed_.store(true, std::memory_order_release); }

  /// The completion thread's body. It never sleeps: a sleeping thread
  /// wakes up milliseconds late on a busy host, and every response seen
  /// late is charged that delay. It yields instead. (Polling from the
  /// sender between sends instead, with no completion thread spinning,
  /// doubled read_tcp's median read latency on a 4-vCPU guest: with one
  /// vCPU fewer kept busy, more of the fleet's thread hand-offs had to
  /// wake an idle vCPU.)
  ///
  /// A future the program returns as std::launch::deferred (a replicated
  /// slot's read: its failover and staleness checks run inside .get())
  /// cannot be polled. Those are resolved in submission order whenever no
  /// pollable response is ready, and stamped when .get() returns — so a
  /// deferred read that resolves before an older deferred one is charged
  /// the older one's wait, and pollable ones wait while .get() blocks. No
  /// workload mixes replicated and single-replica slots, so a run has
  /// only one kind.
  void Run() {
    std::vector<InFlight> live;
    std::deque<InFlight> deferred;
    for (;;) {
      // Read `closed_` before draining: a Submit that precedes Close is
      // then always seen by the drain below.
      const bool closed = closed_.load(std::memory_order_acquire);
      if (has_inbox_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mu_);
        for (InFlight& f : inbox_) {
          if (f.response.wait_for(std::chrono::seconds(0)) ==
              std::future_status::deferred) {
            deferred.push_back(std::move(f));
          } else {
            live.push_back(std::move(f));
          }
        }
        inbox_.clear();
        has_inbox_.store(false, std::memory_order_relaxed);
      } else if (closed && live.empty() && deferred.empty()) {
        return;
      }
      bool progressed = false;
      for (size_t i = 0; i < live.size();) {
        if (live[i].response.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        Finish(&live[i]);
        live[i] = std::move(live.back());
        live.pop_back();
        progressed = true;
      }
      if (progressed) continue;
      if (!deferred.empty()) {
        Finish(&deferred.front());
        deferred.pop_front();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  struct InFlight {
    Meta meta;
    Clock::time_point due;
    std::future<Response> response;
  };

  void Finish(InFlight* f) {
    Response response = f->response.get();
    on_done_(f->meta, f->due, std::move(response), Clock::now());
  }

  OnDone on_done_;
  std::mutex mu_;  ///< guards inbox_
  std::vector<InFlight> inbox_;
  std::atomic<bool> has_inbox_{false};
  std::atomic<bool> closed_{false};
};

/// How late a bare sleep_until loop at `hz` wakes up, in ms, over
/// `seconds`: the host's own scheduling noise, with no program running
/// beside it.
inline std::vector<double> ProbeWakeupLateness(double hz, double seconds) {
  std::vector<double> late_ms;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / hz));
  Clock::time_point due = Clock::now();
  const auto count = static_cast<int64_t>(hz * seconds);
  for (int64_t i = 0; i < count; ++i) {
    due += period;
    std::this_thread::sleep_until(due);
    late_ms.push_back(MillisBetween(due, Clock::now()));
  }
  return late_ms;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
