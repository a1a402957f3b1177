#include "reference/provenance_reference.hpp"

#include <cstdio>

namespace trajkit::wifi::reference {
namespace {

void append_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

void ProvenanceOracle::add(const ReferencePoint& point, UploaderId uploader) {
  const TileId tile = tile_of(point.pos, cell_size_m_);
  Cell& cell = cells_[{tile.tx, tile.ty}];
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

std::vector<ProvenanceGrid::Key> ProvenanceOracle::keys() const {
  std::vector<ProvenanceGrid::Key> out;
  for (const auto& [key, cell] : cells_) {
    for (const auto& entry : cell.aps) out.push_back({key, entry.first});
  }
  return out;
}

const std::map<UploaderId, ApCellStats>* ProvenanceOracle::uploaders_at(
    const Enu& pos, std::uint64_t mac) const {
  const TileId tile = tile_of(pos, cell_size_m_);
  const auto cell = cells_.find({tile.tx, tile.ty});
  if (cell == cells_.end()) return nullptr;
  const auto it = cell->second.aps.find(mac);
  return it == cell->second.aps.end() ? nullptr : &it->second;
}

std::vector<double> ProvenanceOracle::uploader_means(const Enu& pos, std::uint64_t mac,
                                                     UploaderId exclude) const {
  std::vector<double> means;
  const auto* uploaders = uploaders_at(pos, mac);
  if (uploaders == nullptr) return means;
  for (const auto& [uploader, stats] : *uploaders) {
    if (uploader == exclude && exclude != kAnonymousUploader) continue;
    means.push_back(stats.mean());
  }
  return means;
}

bool ProvenanceOracle::estimate(const Enu& pos, std::uint64_t mac,
                                const RobustAggregationParams& params,
                                double* out) const {
  if (params.trim_fraction <= 0.0) {
    const auto* uploaders = uploaders_at(pos, mac);
    if (uploaders == nullptr) return false;
    ApCellStats pooled;
    for (const auto& [uploader, stats] : *uploaders) {
      pooled.count += stats.count;
      pooled.sum += stats.sum;
    }
    if (pooled.count == 0) return false;
    *out = pooled.mean();
    return true;
  }
  const std::vector<double> means = uploader_means(pos, mac);
  if (means.size() < params.min_uploaders) return false;
  *out = trimmed_mean(means, params.trim_fraction);
  return true;
}

bool ProvenanceOracle::consensus_excluding(const Enu& pos, std::uint64_t mac,
                                           UploaderId exclude,
                                           const RobustAggregationParams& params,
                                           double* out) const {
  const std::vector<double> means = uploader_means(pos, mac, exclude);
  if (means.size() < params.min_uploaders) return false;
  *out = trimmed_mean(means, params.trim_fraction);
  return true;
}

std::string ProvenanceOracle::serialize() const {
  std::string out = "provgrid 1 ";
  append_num(out, cell_size_m_);
  out += ' ' + std::to_string(points_) + ' ' + std::to_string(cells_.size()) + '\n';
  for (const auto& [key, cell] : cells_) {
    out += std::to_string(key.first) + ' ' + std::to_string(key.second) + ' ' +
           std::to_string(cell.count) + ' ' + std::to_string(cell.aps.size());
    for (const auto& [mac, uploaders] : cell.aps) {
      out += ' ' + std::to_string(mac) + ' ' + std::to_string(uploaders.size());
      for (const auto& [uploader, ap] : uploaders) {
        out += ' ' + std::to_string(uploader) + ' ' + std::to_string(ap.count) + ' ';
        append_num(out, ap.sum);
        out += ' ';
        append_num(out, ap.sumsq);
      }
    }
    out += '\n';
  }
  return out;
}

std::uint64_t ProvenanceOracle::checksum() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : serialize()) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace trajkit::wifi::reference
