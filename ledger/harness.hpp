// Measurement primitives of the performance ledger: percentiles, outcome
// accounting, product checksums, open/closed-loop request generators, the
// benchmark-side span tracer and the metric sink.  Nothing here depends on
// the library's internals beyond the CsrMatrix layout, so selftest.cpp can
// exercise every piece with fakes.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- Percentiles ------------------------------------------------------------

/// Nearest-rank percentile: the ceil(q*n)-th smallest sample (1-based), so
/// every reported value is one that was actually measured.  q in (0, 1].
/// Empty input yields NaN.
inline double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

inline double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 0.5);
}

/// A percentile together with the sample count it was taken from.
struct Tail {
  double q = 0.5;
  double value = std::numeric_limits<double>::quiet_NaN();
  std::size_t samples = 0;
};

/// The highest of p99.9 / p99 / p90 / p75 / p50 that still has at least ten
/// samples ranked above it; the median when the sample is too small for any
/// of them.  A failed request is passed in as +infinity, so it can only push
/// the tail up.
inline Tail highest_supported_tail(const std::vector<double>& samples) {
  Tail t;
  t.samples = samples.size();
  for (const double q : {0.999, 0.99, 0.9, 0.75}) {
    const auto n = static_cast<double>(samples.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (samples.size() >= rank + 10 && rank > 0) {
      t.q = q;
      t.value = nearest_rank(samples, q);
      return t;
    }
  }
  t.q = 0.5;
  t.value = nearest_rank(samples, 0.5);
  return t;
}

inline std::string percentile_label(double q) {
  if (q >= 0.999) return "p99.9";
  if (q >= 0.99) return "p99";
  if (q >= 0.9) return "p90";
  if (q >= 0.75) return "p75";
  return "p50";
}

// ---- Outcomes ---------------------------------------------------------------

/// Why an attempted operation did not count as a success.
enum class Failure { kThrew, kShed, kDeadline, kBadOutput };

/// Attempted vs failed operations of one workload.  Every failure kind
/// counts against failed_share() alike.
struct Outcomes {
  std::size_t attempted = 0;
  std::size_t threw = 0;
  std::size_t shed = 0;
  std::size_t missed_deadline = 0;
  std::size_t bad_output = 0;

  void ok() { ++attempted; }
  void fail(Failure why) {
    ++attempted;
    switch (why) {
      case Failure::kThrew: ++threw; break;
      case Failure::kShed: ++shed; break;
      case Failure::kDeadline: ++missed_deadline; break;
      case Failure::kBadOutput: ++bad_output; break;
    }
  }
  /// Records a success or an output-check failure.
  void check(bool output_ok) {
    if (output_ok) ok(); else fail(Failure::kBadOutput);
  }
  [[nodiscard]] std::size_t failed() const {
    return threw + shed + missed_deadline + bad_output;
  }
  [[nodiscard]] double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

// ---- Product checksums ------------------------------------------------------

/// Position-sensitive 64-bit checksum of a CSR body: every row pointer,
/// column index and value bit pattern is mixed with its position, so a
/// changed, moved or missing entry changes the sum.  Wrapping sums of
/// independent terms vectorize, keeping the check cheap beside the product.
template <typename Matrix>
std::uint64_t checksum(const Matrix& m) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h = static_cast<std::uint64_t>(m.nrows) * 31 +
                    static_cast<std::uint64_t>(m.ncols);
  const std::size_t nr = m.rpts.size();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < nr; ++i) {
    acc += (static_cast<std::uint64_t>(m.rpts[i]) + 1) * ((i + 1) * kMul);
  }
  h = h * kMul + acc;
  acc = 0;
  const std::size_t nz = m.cols.size();
  for (std::size_t i = 0; i < nz; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &m.vals[i], sizeof(double));
    const std::uint64_t pos = (i + 1) * kMul;
    acc += (static_cast<std::uint64_t>(m.cols[i]) + 1) * pos + (bits ^ pos);
  }
  return h * kMul + acc;
}

/// Bitwise equality of two CSR matrices (shape, structure and value bits).
template <typename Matrix>
bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.nrows != y.nrows || x.ncols != y.ncols ||
      x.rpts.size() != y.rpts.size() || x.cols.size() != y.cols.size() ||
      x.vals.size() != y.vals.size()) {
    return false;
  }
  return std::equal(x.rpts.begin(), x.rpts.end(), y.rpts.begin()) &&
         std::equal(x.cols.begin(), x.cols.end(), y.cols.begin()) &&
         std::memcmp(x.vals.data(), y.vals.data(),
                     x.vals.size() * sizeof(x.vals[0])) == 0;
}

// ---- Request generators -----------------------------------------------------

/// One request of an open- or closed-loop phase, as the generator saw it.
struct RequestSample {
  int cls = 0;            ///< caller-defined request class
  double late_ms = 0.0;   ///< submit time minus due time (open loop)
  /// Latency from the due time (open loop) or from submission (closed
  /// loop) to delivery; +infinity for a failed request.
  double latency_ms = 0.0;
  double service_ms = 0.0;  ///< time the server reports having spent
  bool ok = false;
};

/// What a server returns for one request: whether it succeeded (including
/// the output check), how long after submission it was delivered, and how
/// much of that it spent serving (the rest is queueing).
struct Delivery {
  bool ok = false;
  Failure failure = Failure::kThrew;
  double since_submit_ms = 0.0;
  double service_ms = 0.0;
};

/// Open loop: request i is due at start + i / rate, whatever happened to the
/// requests before it.  `submit(i)` must return promptly with a ticket;
/// `collect(ticket)` blocks until that request is delivered.  Latency is
/// measured from the due time, so a late generator (`stall(i)` lets tests
/// inject one before request i is submitted) shows up as latency, not as a
/// silently lower offered rate.  Tickets are collected on a second thread
/// in submission order while the generator keeps going; `collect` must not
/// throw, and must report an empty (default) ticket as a failure.
template <typename Ticket, typename Submit, typename Collect>
std::vector<RequestSample> run_open_loop(
    std::size_t n, double rate_per_s, const std::function<int(std::size_t)>& cls,
    Submit&& submit, Collect&& collect,
    const std::function<void(std::size_t)>& stall = {}) {
  struct Slot {
    Ticket ticket{};
    Clock::time_point due{};
    Clock::time_point submitted{};
  };
  std::vector<Slot> slots(n);
  std::vector<RequestSample> out(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t published = 0;

  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return published > i; });
      }
      Slot& s = slots[i];
      const Delivery d = collect(s.ticket);
      RequestSample& r = out[i];
      r.cls = cls(i);
      r.late_ms = ms_since(s.due, s.submitted);
      r.ok = d.ok;
      r.service_ms = d.service_ms;
      r.latency_ms = d.ok ? r.late_ms + d.since_submit_ms
                          : std::numeric_limits<double>::infinity();
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto period = std::chrono::duration<double>(1.0 / rate_per_s);
  for (std::size_t i = 0; i < n; ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    period * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    if (stall) stall(i);
    Slot& s = slots[i];
    s.due = due;
    s.submitted = Clock::now();
    try {
      s.ticket = submit(i);
    } catch (...) {
      // The empty ticket fails in collect(), so the request counts as
      // failed and the collector still sees every index.
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
  return out;
}

/// Closed loop: one thread keeps `window` requests in flight, like `window`
/// callers that each wait for their own reply: whichever request is
/// delivered first is replaced by the next one, until `seconds` have
/// passed.  `ready(ticket, wait)` reports, waiting at most `wait`, whether a
/// request can be collected without blocking.  Latency is measured from
/// submission.
template <typename Ticket, typename Submit, typename Ready, typename Collect>
std::vector<RequestSample> run_closed_loop(
    double seconds, std::size_t window,
    const std::function<int(std::size_t)>& cls, Submit&& submit,
    Ready&& ready, Collect&& collect, double* elapsed_s) {
  struct Slot {
    std::size_t index = 0;
    Ticket ticket{};
    bool busy = false;
  };
  std::vector<RequestSample> out;
  std::vector<Slot> slots(window);
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::size_t next = 0;
  auto launch = [&](Slot& s) {
    s.index = next++;
    s.ticket = submit(s.index);
    s.busy = true;
  };
  for (Slot& s : slots) launch(s);
  std::size_t busy = window;
  while (busy > 0) {
    bool progressed = false;
    std::size_t oldest = window;
    for (std::size_t k = 0; k < window; ++k) {
      Slot& s = slots[k];
      if (!s.busy) continue;
      if (!ready(s.ticket, std::chrono::microseconds(0))) {
        if (oldest == window || s.index < slots[oldest].index) oldest = k;
        continue;
      }
      const Delivery d = collect(s.ticket);
      RequestSample r;
      r.cls = cls(s.index);
      r.ok = d.ok;
      r.service_ms = d.service_ms;
      r.latency_ms =
          d.ok ? d.since_submit_ms : std::numeric_limits<double>::infinity();
      out.push_back(r);
      s.ticket = Ticket{};
      s.busy = false;
      --busy;
      progressed = true;
      if (Clock::now() < stop) {
        launch(s);
        ++busy;
      }
    }
    if (!progressed && oldest != window) {
      (void)ready(slots[oldest].ticket, std::chrono::microseconds(100));
    }
  }
  if (elapsed_s != nullptr) {
    *elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return out;
}

// ---- Process counters -------------------------------------------------------

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  Clock::time_point wall = Clock::now();

  static CpuTimes now() {
    CpuTimes t;
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    t.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    t.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    t.wall = Clock::now();
    return t;
  }
};

/// (user + system CPU) / (wall * cores) between two snapshots.
inline double cpu_utilization(const CpuTimes& from, const CpuTimes& to,
                              int cores) {
  const double wall = ms_since(from.wall, to.wall) * 1e-3;
  if (wall <= 0.0 || cores <= 0) return 0.0;
  return ((to.user_s - from.user_s) + (to.sys_s - from.sys_s)) /
         (wall * static_cast<double>(cores));
}

inline double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Benchmark-side tracing -------------------------------------------------

/// Spans recorded by the benchmark around each call into a library layer:
/// name, start, end, the enclosing span and the request they belong to.
/// Off unless enabled; an off tracer costs one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t thread = 0;  ///< small per-process thread number
    double start_us = 0.0;
    double end_us = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request)
        : t_(t != nullptr && t->on_ ? t : nullptr) {
      if (t_ != nullptr) index_ = t_->open(name, request);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }

   private:
    Tracer* t_;
    std::size_t index_ = 0;
  };

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(this, name, request);
  }
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Writes the spans as Chrome trace_event JSON (chrome://tracing,
  /// Perfetto); the span id, parent and request ride in "args".
  void write_chrome_trace(std::FILE* f) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "{\"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.thread, s.start_us,
                   s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
  }

  /// Names of the recorded spans, each once, in first-seen order.
  [[nodiscard]] std::vector<std::string> names() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> out;
    for (const Span& s : spans_) {
      if (std::find(out.begin(), out.end(), s.name) == out.end()) {
        out.push_back(s.name);
      }
    }
    return out;
  }

  /// Summed duration of spans with this name, minus the time their child
  /// spans cover (the layer's self time).
  [[nodiscard]] double self_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::uint64_t, double> child_us;
    for (const Span& s : spans_) child_us[s.parent] += s.end_us - s.start_us;
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      total += (s.end_us - s.start_us) - child_us[s.id];
    }
    return total * 1e-3;
  }

 private:
  std::size_t open(const char* name, std::uint64_t request) {
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = stack().empty() ? 0 : stack().back();
    s.request = request;
    s.thread = thread_number();
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    stack().push_back(spans_.back().id);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[index].end_us = now_us();
    if (!stack().empty()) stack().pop_back();
  }
  double now_us() const { return ms_since(origin_, Clock::now()) * 1e3; }
  static std::uint32_t thread_number() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t n = next++;
    return n;
  }
  static std::vector<std::uint64_t>& stack() {
    thread_local std::vector<std::uint64_t> s;
    return s;
  }

  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Metric sink ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) map printed as the result line's
/// "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (map_.find(name) == map_.end()) order_.push_back(name);
    map_[name] = Metric{value, unit};
  }
  [[nodiscard]] const Metric& get(const std::string& name) const {
    return map_.at(name);
  }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return order_;
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> map_;
};

}  // namespace ledger
