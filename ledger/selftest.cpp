// Tests of the ledger's own measurement code (harness.hpp).  Run through
// `python3 ledger/run.py --self-test`, or directly as ledger_selftest.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "harness.hpp"
#include "matrix/csr.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace ledger;

void nearest_rank_percentiles() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(nearest_rank(v, 0.5) == 5.0);
  EXPECT(nearest_rank(v, 0.9) == 9.0);
  EXPECT(nearest_rank(v, 0.99) == 10.0);
  EXPECT(nearest_rank(v, 0.1) == 1.0);
  EXPECT(nearest_rank(v, 0.01) == 1.0);
  EXPECT(std::isnan(nearest_rank({}, 0.5)));
  EXPECT(median({7.0}) == 7.0);

  // The reported tail is the highest percentile with >= 10 samples above
  // its rank, and carries the sample count.
  std::vector<double> s15(15, 1.0), s100(100), s1010(1010);
  for (std::size_t i = 0; i < s100.size(); ++i) s100[i] = double(i + 1);
  for (std::size_t i = 0; i < s1010.size(); ++i) s1010[i] = double(i + 1);
  const Tail t15 = highest_supported_tail(s15);
  EXPECT(t15.q == 0.5 && t15.samples == 15);
  const Tail t100 = highest_supported_tail(s100);
  EXPECT(t100.q == 0.9 && t100.value == 90.0 && t100.samples == 100);
  const Tail t1010 = highest_supported_tail(s1010);
  EXPECT(t1010.q == 0.99 && t1010.value == 1000.0 && t1010.samples == 1010);
  EXPECT(percentile_label(t1010.q) == "p99");
}

/// A fake server for the generators: delivers after `service_ms`, and fails
/// the requests `fail` selects.
struct FakeTicket {
  std::size_t index = 0;
};

void failed_requests_miss_the_limit() {
  const auto fail = [](std::size_t i) { return i % 5 == 0; };
  const auto samples = run_open_loop<FakeTicket>(
      100, 2000.0, [](std::size_t) { return 0; },
      [](std::size_t i) { return FakeTicket{i}; },
      [&](FakeTicket& t) {
        Delivery d;
        d.ok = !fail(t.index);
        d.failure = Failure::kShed;
        d.since_submit_ms = 0.2;
        return d;
      });
  std::vector<double> lat;
  Outcomes out;
  for (const RequestSample& r : samples) {
    lat.push_back(r.latency_ms);
    if (r.ok) out.ok(); else out.fail(Failure::kShed);
  }
  EXPECT(std::isinf(samples[0].latency_ms) && !samples[0].ok);
  EXPECT(std::isfinite(samples[1].latency_ms) && samples[1].ok);
  // 20% failed: every percentile above p80 is unbounded, so any latency
  // limit on the p90 tail is missed even though each success was fast.
  const Tail tail = highest_supported_tail(lat);
  EXPECT(tail.q == 0.9 && std::isinf(tail.value));
  EXPECT(!(tail.value <= 1000.0));
  EXPECT(out.shed == 20 && out.failed() == 20 && out.failed_share() == 0.2);
}

void open_loop_latency_counts_generator_stall() {
  static constexpr double kStallMs = 40.0;
  const auto samples = run_open_loop<FakeTicket>(
      60, 1000.0, [](std::size_t) { return 0; },
      [](std::size_t i) { return FakeTicket{i}; },
      [](FakeTicket&) {
        Delivery d;
        d.ok = true;
        d.since_submit_ms = 0.5;
        return d;
      },
      [](std::size_t i) {
        if (i == 10) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(kStallMs));
        }
      });
  // Before the stall the service time is all there is.
  EXPECT(samples[5].latency_ms < 10.0);
  // The stalled request and the ones queued behind it were due while the
  // generator slept: their latency includes the wait, measured from due.
  EXPECT(samples[10].late_ms >= kStallMs - 1.0);
  EXPECT(samples[10].latency_ms >= kStallMs);
  EXPECT(samples[20].latency_ms >= kStallMs - 12.0);
  for (const RequestSample& r : samples) {
    EXPECT(r.latency_ms >= r.late_ms + 0.5 - 1e-9);
  }
}

void closed_loop_keeps_window_in_flight() {
  std::atomic<int> in_flight{0};
  int peak = 0;
  double elapsed = 0.0;
  const auto samples = run_closed_loop<FakeTicket>(
      0.05, 4, [](std::size_t) { return 0; },
      [&](std::size_t i) {
        peak = std::max(peak, ++in_flight);
        return FakeTicket{i};
      },
      [](FakeTicket&, std::chrono::microseconds) { return true; },
      [&](FakeTicket&) {
        --in_flight;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        Delivery d;
        d.ok = true;
        d.since_submit_ms = 0.2;
        return d;
      },
      &elapsed);
  EXPECT(peak == 4);
  EXPECT(samples.size() >= 4 && elapsed >= 0.05);
}

void corrupted_checksum_raises_failed_share() {
  spgemm::CsrMatrix<std::int32_t, double> c(3, 4);
  const spgemm::Offset rpts[] = {0, 2, 3, 5};
  const std::int32_t cols[] = {0, 3, 1, 0, 2};
  const double vals[] = {1.0, 2.5, -3.0, 4.0, 0.125};
  c.rpts.assign(std::begin(rpts), std::end(rpts));
  c.cols.assign(std::begin(cols), std::end(cols));
  c.vals.assign(std::begin(vals), std::end(vals));
  const std::uint64_t expected = checksum(c);

  Outcomes out;
  out.check(checksum(c) == expected);
  EXPECT(out.failed_share() == 0.0);

  auto flipped = c;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &flipped.vals[4], sizeof bits);
  bits ^= 1;  // one ulp
  std::memcpy(&flipped.vals[4], &bits, sizeof bits);
  auto swapped = c;
  std::swap(swapped.cols[0], swapped.cols[1]);
  std::swap(swapped.vals[0], swapped.vals[1]);
  auto moved = c;
  moved.rpts[1] = 1;
  EXPECT(checksum(flipped) != expected);
  EXPECT(checksum(swapped) != expected);
  EXPECT(checksum(moved) != expected);
  EXPECT(!bitwise_equal(flipped, c) && bitwise_equal(c, c));

  out.check(checksum(flipped) == expected);
  EXPECT(out.bad_output == 1 && out.failed_share() == 0.5);
}

void tracer_self_time() {
  Tracer t;
  {
    auto off = t.span("ignored");
  }
  EXPECT(t.spans().empty());
  t.enable(true);
  {
    auto outer = t.span("outer", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    auto inner = t.span("inner", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
  }
  const auto spans = t.spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans[1].parent == spans[0].id && spans[1].request == 7);
  // The outer span lasted ~8 ms, half of it covered by its child.
  EXPECT(t.self_ms("inner") >= 3.5 && t.self_ms("outer") >= 3.5);
  EXPECT(t.self_ms("outer") < spans[0].end_us * 1e-3 - spans[0].start_us * 1e-3 - 3.5);
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  failed_requests_miss_the_limit();
  open_loop_latency_counts_generator_stall();
  closed_loop_keeps_window_in_flight();
  corrupted_checksum_raises_failed_share();
  tracer_self_time();
  std::printf("ledger self-test: %s (%d failure%s)\n",
              failures == 0 ? "ok" : "FAILED", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
