#include "wifi/provenance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace trajkit::wifi {
namespace {

void append_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

ProvenanceGrid::ProvenanceGrid(double cell_size_m) : cell_size_m_(cell_size_m) {
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

const ProvenanceGrid::Cell* ProvenanceGrid::cell_at(const Enu& pos) const {
  const auto it = cells_.find(cell_of(pos));
  return it == cells_.end() ? nullptr : &it->second;
}

void ProvenanceGrid::add(const ReferencePoint& point, UploaderId uploader) {
  Cell& cell = cells_[cell_of(point.pos)];
  ++cell.count;
  ++points_;
  for (const auto& obs : point.scan) {
    ApCellStats& ap = cell.aps[obs.mac][uploader];
    const double rssi = static_cast<double>(obs.rssi_dbm);
    ++ap.count;
    ap.sum += rssi;
    ap.sumsq += rssi * rssi;
  }
}

std::vector<double> ProvenanceGrid::uploader_means(const Enu& pos, std::uint64_t mac,
                                                   UploaderId exclude) const {
  std::vector<double> means;
  const Cell* cell = cell_at(pos);
  if (cell == nullptr) return means;
  const auto it = cell->aps.find(mac);
  if (it == cell->aps.end()) return means;
  means.reserve(it->second.size());
  for (const auto& [uploader, stats] : it->second) {
    if (uploader == exclude && exclude != kAnonymousUploader) continue;
    means.push_back(stats.mean());
  }
  return means;
}

std::string ProvenanceGrid::serialize() const {
  std::string out = "provgrid 1 ";
  append_num(out, cell_size_m_);
  out += ' ';
  out += std::to_string(points_);
  out += ' ';
  out += std::to_string(cells_.size());
  out += '\n';
  for (const auto& [key, cell] : cells_) {
    out += std::to_string(key.first);
    out += ' ';
    out += std::to_string(key.second);
    out += ' ';
    out += std::to_string(cell.count);
    out += ' ';
    out += std::to_string(cell.aps.size());
    for (const auto& [mac, uploaders] : cell.aps) {
      out += ' ';
      out += std::to_string(mac);
      out += ' ';
      out += std::to_string(uploaders.size());
      for (const auto& [uploader, ap] : uploaders) {
        out += ' ';
        out += std::to_string(uploader);
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

double trimmed_mean(std::vector<double> values, double trim_fraction) {
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
    const ProvenanceGrid::Cell* cell = provenance_->cell_at(pos);
    if (cell == nullptr) return false;
    const auto it = cell->aps.find(mac);
    if (it == cell->aps.end()) return false;
    ApCellStats pooled;
    for (const auto& [uploader, stats] : it->second) {
      pooled.count += stats.count;
      pooled.sum += stats.sum;
    }
    if (pooled.count == 0) return false;
    if (out != nullptr) *out = pooled.mean();
    return true;
  }
  const std::vector<double> means = provenance_->uploader_means(pos, mac);
  if (means.size() < params_.min_uploaders) return false;
  if (out != nullptr) *out = trimmed_mean(means, params_.trim_fraction);
  return true;
}

bool RobustCellAggregator::consensus_excluding(const Enu& pos, std::uint64_t mac,
                                               UploaderId exclude,
                                               double* out) const {
  const std::vector<double> means = provenance_->uploader_means(pos, mac, exclude);
  if (means.size() < params_.min_uploaders) return false;
  // Witness-weighted even at trim = 0: a reputation consensus dominated by
  // whoever flooded the most observations would hand Sybils the scorer.
  if (out != nullptr) *out = trimmed_mean(means, params_.trim_fraction);
  return true;
}

}  // namespace trajkit::wifi
