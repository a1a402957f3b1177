#include "trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace servebench {

std::int32_t SpanRecorder::begin(std::string name, std::int32_t parent,
                                 std::uint64_t request_id) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request_id = request_id;
  span.start_ns = now_ns();
  return add(std::move(span));
}

void SpanRecorder::end(std::int32_t span) {
  spans_.at(static_cast<std::size_t>(span)).end_ns = now_ns();
}

std::int32_t SpanRecorder::add(Span span) {
  if (span.parent != kNoParent &&
      (span.parent < 0 || static_cast<std::size_t>(span.parent) >= spans_.size())) {
    throw std::invalid_argument("SpanRecorder: parent must be an earlier span");
  }
  spans_.push_back(std::move(span));
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::write_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request_id << "}\n";
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    ++t.calls;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace servebench
