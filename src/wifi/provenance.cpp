#include "wifi/provenance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace trajkit::wifi {
namespace {

constexpr std::uint32_t kNoRow = 0xffffffffu;

void append_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

// Multiplicative mixing in unsigned arithmetic, so the saturated keys
// (INT64_MIN / INT64_MAX) hash like any other.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x9e3779b97f4a7c15ull;
}
std::uint64_t hash_of(const CellKey& cell) {
  return mix(mix(0, static_cast<std::uint64_t>(cell.first)),
             static_cast<std::uint64_t>(cell.second));
}
std::uint64_t hash_of(const ProvenanceGrid::Key& key) {
  return mix(hash_of(key.cell), key.mac);
}

/// Slot holding `key`'s row id in `slots`, or the empty slot where it
/// belongs.
template <class Row, class K>
std::size_t slot_of(const std::vector<std::uint32_t>& slots,
                    const std::vector<Row>& rows, const K& key) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_of(key) >> 32) & mask;
  while (slots[i] != kNoRow && !(rows[slots[i]].key == key)) i = (i + 1) & mask;
  return i;
}

/// Row id of `key`, appending a fresh row for it when it is new; doubles the
/// slot table and re-probes every row, in row order, past half load.
template <class Row, class K>
std::uint32_t intern(std::vector<std::uint32_t>& slots, std::vector<Row>& rows,
                     const K& key) {
  const std::size_t i = slot_of(slots, rows, key);
  if (slots[i] != kNoRow) return slots[i];
  if (rows.size() >= kNoRow) throw std::length_error("ProvenanceGrid: 2^32 rows");
  const auto id = static_cast<std::uint32_t>(rows.size());
  rows.push_back(Row{key, {}});
  slots[i] = id;
  if (2 * rows.size() > slots.size()) {
    slots.assign(2 * slots.size(), kNoRow);
    const std::size_t mask = slots.size() - 1;
    for (std::uint32_t r = 0; r < rows.size(); ++r) {
      std::size_t j = static_cast<std::size_t>(hash_of(rows[r].key) >> 32) & mask;
      while (slots[j] != kNoRow) j = (j + 1) & mask;
      slots[j] = r;
    }
  }
  return id;
}

/// Order of `rows` by key: the canonical walk serialize() takes.
template <class Row>
std::vector<std::uint32_t> sorted_rows(const std::vector<Row>& rows) {
  std::vector<std::uint32_t> order(rows.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return rows[a].key < rows[b].key; });
  return order;
}

}  // namespace

ProvenanceGrid::ProvenanceGrid(double cell_size_m) : cell_size_m_(cell_size_m) {
  static_assert(kNone == kNoRow);
  if (!(cell_size_m > 0.0)) {
    throw std::invalid_argument("ProvenanceGrid: cell size must be positive");
  }
}

CellKey ProvenanceGrid::cell_of(const Enu& pos) const {
  // tile_of saturates a quotient past the int64 range (a tiny cell far from
  // the origin) instead of converting it.
  const TileId tile = tile_of(pos, cell_size_m_);
  return {tile.tx, tile.ty};
}

std::uint64_t ProvenanceGrid::cell_points(const Enu& pos) const {
  const std::uint32_t row = cell_slots_[slot_of(cell_slots_, cells_, cell_of(pos))];
  return row == kNoRow ? 0 : cells_[row].points;
}

std::uint32_t ProvenanceGrid::find(const Key& key) const {
  return key_slots_[slot_of(key_slots_, key_rows_, key)];
}

ApCellStats& ProvenanceGrid::witness(std::uint32_t row, UploaderId uploader) {
  Witness& head = key_rows_[row].head;
  if (head.stats.count == 0 || head.uploader == uploader) {
    head.uploader = uploader;
    return head.stats;
  }
  if (witnesses_.size() >= kNoRow) throw std::length_error("ProvenanceGrid: 2^32 witnesses");
  const auto id = static_cast<std::uint32_t>(witnesses_.size());
  if (uploader < head.uploader) {
    // The newcomer sorts first: the old head moves to the pool.
    witnesses_.push_back(head);
    key_rows_[row].head = {uploader, {}, id};
    return key_rows_[row].head.stats;
  }
  // Link after the last witness below `uploader` (indices, since the
  // push_back may move the pool).
  std::uint32_t prev = kNoRow;
  std::uint32_t w = head.next;
  for (; w != kNoRow && witnesses_[w].uploader < uploader; w = witnesses_[w].next) prev = w;
  if (w != kNoRow && witnesses_[w].uploader == uploader) return witnesses_[w].stats;
  witnesses_.push_back({uploader, {}, w});
  (prev == kNoRow ? key_rows_[row].head.next : witnesses_[prev].next) = id;
  return witnesses_[id].stats;
}

void ProvenanceGrid::add(const ReferencePoint& point, UploaderId uploader) {
  const CellKey cell = cell_of(point.pos);
  ++cells_[intern(cell_slots_, cells_, cell)].points;
  ++points_;
  for (const auto& obs : point.scan) {
    ApCellStats& ap = witness(intern(key_slots_, key_rows_, Key{cell, obs.mac}), uploader);
    const double rssi = static_cast<double>(obs.rssi_dbm);
    ++ap.count;
    ap.sum += rssi;
    ap.sumsq += rssi * rssi;
  }
}

void ProvenanceGrid::reserve(std::size_t observations) {
  key_rows_.reserve(key_rows_.size() + observations);
  witnesses_.reserve(witnesses_.size() + observations);
}

std::vector<ProvenanceGrid::Key> ProvenanceGrid::keys() const {
  std::vector<Key> out;
  out.reserve(key_rows_.size());
  for (const std::uint32_t r : sorted_rows(key_rows_)) out.push_back(key_rows_[r].key);
  return out;
}

std::vector<double> ProvenanceGrid::uploader_means(const Enu& pos, std::uint64_t mac,
                                                   UploaderId exclude) const {
  std::vector<double> means;
  uploader_means(pos, mac, exclude, means);
  return means;
}

void ProvenanceGrid::uploader_means(const Enu& pos, std::uint64_t mac, UploaderId exclude,
                                    std::vector<double>& out) const {
  out.clear();
  const std::uint32_t row = find({cell_of(pos), mac});
  if (row == kNoRow) return;
  for (const Witness* w = &key_rows_[row].head; w != nullptr; w = after(*w)) {
    if (w->uploader == exclude && exclude != kAnonymousUploader) continue;
    out.push_back(w->stats.mean());
  }
}

ApCellStats ProvenanceGrid::pooled(const Enu& pos, std::uint64_t mac) const {
  ApCellStats pooled;
  const std::uint32_t row = find({cell_of(pos), mac});
  if (row == kNoRow) return pooled;
  for (const Witness* w = &key_rows_[row].head; w != nullptr; w = after(*w)) {
    pooled.count += w->stats.count;
    pooled.sum += w->stats.sum;
    pooled.sumsq += w->stats.sumsq;
  }
  return pooled;
}

std::string ProvenanceGrid::serialize() const {
  std::string out = "provgrid 1 ";
  append_num(out, cell_size_m_);
  out += ' ';
  out += std::to_string(points_);
  out += ' ';
  out += std::to_string(cells_.size());
  out += '\n';
  // Keys sorted by (cell, MAC) list each cell's MACs contiguously, in the
  // same cell order as the sorted cells.
  const std::vector<std::uint32_t> keys = sorted_rows(key_rows_);
  std::size_t k = 0;
  for (const std::uint32_t c : sorted_rows(cells_)) {
    const CellKey& cell = cells_[c].key;
    std::size_t end = k;
    while (end < keys.size() && key_rows_[keys[end]].key.cell == cell) ++end;
    out += std::to_string(cell.first);
    out += ' ';
    out += std::to_string(cell.second);
    out += ' ';
    out += std::to_string(cells_[c].points);
    out += ' ';
    out += std::to_string(end - k);
    for (; k < end; ++k) {
      const KeyRow& row = key_rows_[keys[k]];
      std::size_t uploaders = 0;
      for (const Witness* w = &row.head; w != nullptr; w = after(*w)) ++uploaders;
      out += ' ';
      out += std::to_string(row.key.mac);
      out += ' ';
      out += std::to_string(uploaders);
      for (const Witness* w = &row.head; w != nullptr; w = after(*w)) {
        const ApCellStats& ap = w->stats;
        out += ' ';
        out += std::to_string(w->uploader);
        out += ' ';
        out += std::to_string(ap.count);
        out += ' ';
        append_num(out, ap.sum);
        out += ' ';
        append_num(out, ap.sumsq);
      }
    }
    out += '\n';
  }
  return out;
}

std::uint64_t ProvenanceGrid::checksum() const {
  const std::string text = serialize();
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool operator==(const ProvenanceGrid& a, const ProvenanceGrid& b) {
  if (a.cell_size_m_ != b.cell_size_m_ || a.points_ != b.points_ ||
      a.cells_.size() != b.cells_.size() || a.key_rows_.size() != b.key_rows_.size() ||
      a.witnesses_.size() != b.witnesses_.size()) {
    return false;
  }
  for (const auto& cell : a.cells_) {
    const std::uint32_t row = b.cell_slots_[slot_of(b.cell_slots_, b.cells_, cell.key)];
    if (row == kNoRow || b.cells_[row].points != cell.points) return false;
  }
  for (const auto& key : a.key_rows_) {
    const std::uint32_t row = b.find(key.key);
    if (row == kNoRow) return false;
    // Both witness lists run in ascending uploader id.
    const ProvenanceGrid::Witness* wa = &key.head;
    const ProvenanceGrid::Witness* wb = &b.key_rows_[row].head;
    for (; wa != nullptr && wb != nullptr; wa = a.after(*wa), wb = b.after(*wb)) {
      if (wa->uploader != wb->uploader || !(wa->stats == wb->stats)) return false;
    }
    if (wa != wb) return false;
  }
  return true;
}

namespace {

/// trimmed_mean over `values`, sorting them in place.
double trimmed_mean_in_place(std::vector<double>& values, double trim_fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (trim_fraction >= 0.5) {
    // Median: the maximally-trimmed estimate.
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  std::size_t trim = trim_fraction > 0.0
                         ? static_cast<std::size_t>(std::floor(trim_fraction *
                                                               static_cast<double>(n)))
                         : 0;
  if (2 * trim >= n) trim = (n - 1) / 2;
  double sum = 0.0;
  for (std::size_t i = trim; i < n - trim; ++i) sum += values[i];
  return sum / static_cast<double>(n - 2 * trim);
}

/// The witnesses' robust consensus of (cell at `pos`, `mac`) without
/// `exclude`.  The means land in a per-thread buffer that keeps its
/// capacity, so scoring an append allocates nothing once the buffer has
/// grown to the widest key's witness count.
bool robust_consensus(const ProvenanceGrid& grid, const RobustAggregationParams& params,
                      const Enu& pos, std::uint64_t mac, UploaderId exclude, double* out) {
  thread_local std::vector<double> means;
  grid.uploader_means(pos, mac, exclude, means);
  if (means.size() < params.min_uploaders) return false;
  const double consensus = trimmed_mean_in_place(means, params.trim_fraction);
  if (out != nullptr) *out = consensus;
  return true;
}

}  // namespace

double trimmed_mean(std::vector<double> values, double trim_fraction) {
  return trimmed_mean_in_place(values, trim_fraction);
}

RobustCellAggregator::RobustCellAggregator(const ProvenanceGrid& provenance,
                                           RobustAggregationParams params)
    : provenance_(&provenance), params_(params) {
  if (params_.trim_fraction < 0.0 || params_.trim_fraction > 0.5) {
    throw std::invalid_argument(
        "RobustCellAggregator: trim fraction must be in [0, 0.5]");
  }
}

bool RobustCellAggregator::estimate(const Enu& pos, std::uint64_t mac,
                                    double* out) const {
  if (params_.trim_fraction <= 0.0) {
    // The exact-mean oracle path: integer RSSIs make every per-uploader sum
    // an exact integer, so regrouping them by uploader changes no bit of the
    // ingestion-order pooled sum.
    const ApCellStats pooled = provenance_->pooled(pos, mac);
    if (pooled.count == 0) return false;
    if (out != nullptr) *out = pooled.mean();
    return true;
  }
  return robust_consensus(*provenance_, params_, pos, mac, kAnonymousUploader, out);
}

bool RobustCellAggregator::consensus_excluding(const Enu& pos, std::uint64_t mac,
                                               UploaderId exclude,
                                               double* out) const {
  // Witness-weighted even at trim = 0: a reputation consensus dominated by
  // whoever flooded the most observations would hand Sybils the scorer.
  return robust_consensus(*provenance_, params_, pos, mac, exclude, out);
}

}  // namespace trajkit::wifi
