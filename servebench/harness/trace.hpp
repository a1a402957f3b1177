// In-memory spans for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public function (name, start, end, parent span, request id); nothing is
// traced inside the program.  Spans stay in memory while the run measures and
// are written out when it ends.  A layer's self time is its span's duration
// minus the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace servebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = kNoParent;  ///< index of the enclosing span
  std::uint64_t request_id = 0;
};

/// Single-threaded span log.  begin() opens a span and returns its index;
/// end() closes it.
class SpanRecorder {
 public:
  std::int32_t begin(std::string name, std::int32_t parent, std::uint64_t request_id);
  void end(std::int32_t span);
  /// Record an already-timed interval.
  std::int32_t add(Span span);

  /// Time fn() as one span and return what it returns.
  template <typename Fn>
  auto timed(const char* name, std::int32_t parent, std::uint64_t request_id, Fn&& fn) {
    const std::int32_t id = begin(name, parent, request_id);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(id);
    } else {
      auto out = fn();
      end(id);
      return out;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.  Children may overlap each other.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  double mean_self_us() const {
    return calls ? static_cast<double>(self_ns) * 1e-3 / static_cast<double>(calls) : 0.0;
  }
};

/// Per-name totals over a span log.
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

}  // namespace servebench
