// Tests of the open-loop harness (loadgen.h), against a fake service so
// they take about a second and need no fleet:
//
//   * a stall inside the service raises the latency of the requests due
//     during it (the schedule does not wait for the service);
//   * a stall inside the sender raises loadgen lateness and the latency
//     of every request it delayed;
//   * shed and unavailable answers count as failed and miss every limit;
//   * responses are stamped when they resolve, not in submission order,
//     and deferred futures resolve on the completion thread;
//   * a windowed percentile is moved by a stall in most windows, not one;
//   * the Poisson schedule is reproducible from its seed.
//
// Exit 0 when every check passes; each failure prints one line.

#include <atomic>
#include <cstdio>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "server/ppr_service.h"

namespace {

using dppr::QueryResponse;
using dppr::RequestStatus;
using perfbench::Clock;
using perfbench::LatencyLog;
using perfbench::MillisBetween;

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// A one-thread service: answers each request `service_time` after it
/// reaches the head of its queue. `stall_at` > 0 makes it sleep
/// `stall` once, when the request with that index reaches the head.
class FakeService {
 public:
  FakeService(std::chrono::microseconds service_time, uint64_t stall_at,
              std::chrono::milliseconds stall)
      : service_time_(service_time), stall_at_(stall_at), stall_(stall),
        worker_([this] { Loop(); }) {}

  ~FakeService() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    worker_.join();
  }

  std::future<QueryResponse> Submit(uint64_t index, RequestStatus status) {
    std::promise<QueryResponse> promise;
    std::future<QueryResponse> future = promise.get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push({index, status, std::move(promise)});
    }
    cv_.notify_one();
    return future;
  }

 private:
  struct Request {
    uint64_t index;
    RequestStatus status;
    std::promise<QueryResponse> promise;
  };

  void Loop() {
    for (;;) {
      Request r;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        r = std::move(queue_.front());
        queue_.pop();
      }
      if (stall_at_ > 0 && r.index == stall_at_) {
        std::this_thread::sleep_for(stall_);
      }
      perfbench::WaitUntil(Clock::now() + service_time_);
      QueryResponse response;
      response.status = r.status;
      r.promise.set_value(response);
    }
  }

  std::chrono::microseconds service_time_;
  uint64_t stall_at_;
  std::chrono::milliseconds stall_;
  std::mutex mu_;  ///< guards queue_ and closed_
  std::condition_variable cv_;
  std::queue<Request> queue_;
  bool closed_ = false;
  std::thread worker_;  // last: it uses every member above
};

struct Outcome {
  LatencyLog log;
  std::vector<double> late_ms;
  /// Latency of each request by index (NaN until it resolves).
  std::vector<double> by_index;
};

/// Drives `service` open-loop at `rate` for `seconds`. `status_of` picks
/// each request's answer; `sender_stall_at` > 0 blocks the sender once.
template <typename StatusOf>
Outcome Drive(FakeService* service, double rate, double seconds,
              StatusOf status_of, uint64_t sender_stall_at = 0,
              std::chrono::milliseconds sender_stall = {}) {
  Outcome out;
  std::mutex mu;
  perfbench::Collector<QueryResponse, uint64_t> collector(
      [&](const uint64_t& index, Clock::time_point due, QueryResponse r,
          Clock::time_point resolved) {
        std::lock_guard<std::mutex> lock(mu);
        if (r.status != RequestStatus::kOk) {
          out.log.Failed();
          return;
        }
        const double ms = MillisBetween(due, resolved);
        out.log.Ok(ms);
        if (out.by_index.size() <= index) out.by_index.resize(index + 1, -1);
        out.by_index[index] = ms;
      });
  std::thread completions([&] { collector.Run(); });
  const Clock::time_point start = Clock::now();
  perfbench::PoissonSchedule schedule(rate, 7, start);
  out.late_ms = perfbench::SendOnSchedule(
      &schedule,
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)),
      [&](uint64_t index, Clock::time_point due) {
        if (sender_stall_at > 0 && index == sender_stall_at) {
          std::this_thread::sleep_for(sender_stall);
        }
        collector.Submit(index, due, service->Submit(index, status_of(index)));
      },
      [] { return false; });
  collector.Close();
  completions.join();
  return out;
}

const auto kAllOk = [](uint64_t) { return RequestStatus::kOk; };

void ServiceStallRaisesLaterLatency() {
  const auto service_time = std::chrono::microseconds(50);
  double calm_p99 = 0.0;
  {
    FakeService calm(service_time, 0, {});
    calm_p99 = Drive(&calm, 2000, 0.5, kAllOk).log.P(99);
  }
  FakeService stalled(service_time, 200, std::chrono::milliseconds(80));
  const Outcome out = Drive(&stalled, 2000, 0.5, kAllOk);
  // ~160 requests arrive during the 80 ms stall, each waiting out the
  // rest of it: well over 1% of the ~1000 requests, so p99 sees it.
  Check(out.log.P(99) > 20.0 && out.log.P(99) > 5 * calm_p99,
        "service stall raises p99 (" + std::to_string(calm_p99) + " -> " +
            std::to_string(out.log.P(99)) + " ms)");
  // The request right behind the stalled one waited nearly all of it.
  Check(out.by_index.size() > 201 && out.by_index[201] > 40.0,
        "the request behind the stall waited (" +
            std::to_string(out.by_index.size() > 201 ? out.by_index[201]
                                                     : -1.0) +
            " ms)");
  // The stall did not slow the schedule: every request was still sent.
  Check(out.log.attempted > 800,
        "open loop kept sending (" + std::to_string(out.log.attempted) +
            " requests)");
}

void SenderStallRaisesLateness() {
  FakeService service(std::chrono::microseconds(20), 0, {});
  const Outcome calm = Drive(&service, 2000, 0.4, kAllOk);
  const Outcome stalled = Drive(&service, 2000, 0.4, kAllOk, 100,
                                std::chrono::milliseconds(60));
  const double calm_late = perfbench::Percentile(calm.late_ms, 99);
  const double late = perfbench::Percentile(stalled.late_ms, 99);
  Check(late > 20.0 && late > 5 * calm_late,
        "sender stall raises loadgen.late_p99_ms (" +
            std::to_string(calm_late) + " -> " + std::to_string(late) +
            " ms)");
  // Latency runs from the due time, so the delayed sends carry it too.
  Check(stalled.log.P(99) > 20.0,
        "sender stall raises read p99 (" +
            std::to_string(stalled.log.P(99)) + " ms)");
}

void FailuresCountAndMissLimits() {
  FakeService service(std::chrono::microseconds(20), 0, {});
  const auto status_of = [](uint64_t index) {
    if (index % 10 == 3) return RequestStatus::kShedQueueFull;
    if (index % 10 == 7) return RequestStatus::kUnavailable;
    return RequestStatus::kOk;
  };
  const Outcome out = Drive(&service, 2000, 0.3, status_of);
  const double share = static_cast<double>(out.log.failed) /
                       static_cast<double>(out.log.attempted);
  Check(share > 0.17 && share < 0.23,
        "shed + unavailable count in failed_share (" +
            std::to_string(share) + ")");
  // A fifth of the requests failed, so p90 lands on a failure: +inf.
  Check(std::isinf(out.log.P(90)) && std::isfinite(out.log.P(50)),
        "failed requests miss every limit (p90 = inf, p50 finite)");
}

void StampsInResolutionOrder() {
  // Two futures: the first resolves after 30 ms, the second at once.
  std::atomic<bool> fast_seen{false};
  perfbench::Collector<QueryResponse, int> collector(
      [&](const int& which, Clock::time_point due, QueryResponse,
          Clock::time_point resolved) {
        if (which == 1) {
          fast_seen.store(true);
          Check(MillisBetween(due, resolved) < 10.0,
                "a fast response is not charged for a slow one before it");
        }
      });
  std::thread completions([&] { collector.Run(); });
  std::promise<QueryResponse> slow;
  std::promise<QueryResponse> fast;
  const Clock::time_point due = Clock::now();
  collector.Submit(0, due, slow.get_future());
  collector.Submit(1, due, fast.get_future());
  fast.set_value(QueryResponse{});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  slow.set_value(QueryResponse{});
  collector.Close();
  completions.join();
  Check(fast_seen, "the fast response was seen");
}

void DeferredFuturesResolveInOrder() {
  std::vector<int> order;
  perfbench::Collector<QueryResponse, int> collector(
      [&](const int& which, Clock::time_point, QueryResponse,
          Clock::time_point) { order.push_back(which); });
  std::thread completions([&] { collector.Run(); });
  for (int i = 0; i < 3; ++i) {
    collector.Submit(i, Clock::now(), std::async(std::launch::deferred, [] {
                       return QueryResponse{};
                     }));
  }
  collector.Close();
  completions.join();
  Check(order == std::vector<int>({0, 1, 2}),
        "deferred futures resolve on the completion thread, in order");
}

void WindowedPercentileIgnoresOneBadSecond() {
  LatencyLog log;
  for (int second = 0; second < 10; ++second) {
    for (int i = 0; i < 1000; ++i) {
      // Second 4 stalls: every request in it takes 100 ms.
      const double ms = second == 4 ? 100.0 : 0.1 + 0.001 * (i % 100);
      log.Ok(ms, second + i / 1000.0);
    }
  }
  Check(log.P(99) >= 100.0 && log.WindowedP(99, 1.0, 100) < 1.0,
        "one stalled second moves the whole-run p99 (" +
            std::to_string(log.P(99)) + " ms), not the windowed one (" +
            std::to_string(log.WindowedP(99, 1.0, 100)) + " ms)");
  LatencyLog sparse;
  for (int i = 0; i < 10; ++i) sparse.Ok(i, i * 0.01);
  Check(sparse.WindowedP(50, 1.0, 100) == sparse.P(50),
        "with no full window the windowed percentile is the plain one");
}

void ScheduleIsSeeded() {
  const Clock::time_point start = Clock::now();
  perfbench::PoissonSchedule a(1000, 42, start);
  perfbench::PoissonSchedule b(1000, 42, start);
  perfbench::PoissonSchedule c(1000, 43, start);
  bool same = true;
  bool differs = false;
  Clock::time_point last;
  for (int i = 0; i < 1000; ++i) {
    const Clock::time_point x = a.Next();
    same &= x == b.Next();
    differs |= x != c.Next();
    last = x;
  }
  const double mean_gap_ms = MillisBetween(start, last) / 1000.0;
  Check(same && differs, "the schedule is a function of its seed");
  Check(mean_gap_ms > 0.9 && mean_gap_ms < 1.1,
        "mean gap matches the rate (" + std::to_string(mean_gap_ms) +
            " ms)");
}

}  // namespace

int main() {
  ServiceStallRaisesLaterLatency();
  SenderStallRaisesLateness();
  FailuresCountAndMissLimits();
  StampsInResolutionOrder();
  DeferredFuturesResolveInOrder();
  WindowedPercentileIgnoresOneBadSecond();
  ScheduleIsSeeded();
  std::printf("%s\n", failures == 0 ? "all harness checks passed"
                                    : "harness checks FAILED");
  return failures == 0 ? 0 : 1;
}
