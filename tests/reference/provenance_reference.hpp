// The nested ordered-map provenance fold, kept beside the tests.
//
// std::map<cell, {points, std::map<mac, std::map<uploader, ApCellStats>>}>:
// ordered containers iterate in canonical order (cells, then MACs, then
// uploaders, each ascending) by construction, so this is the definition the
// library's flat ProvenanceGrid must reproduce — its serialize()/checksum()
// text, its uploader means and the RobustCellAggregator answers over it,
// bit for bit (poison_test's differential test).  Not part of traj_core: no
// store, serving or scoring path can reach it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "wifi/provenance.hpp"

namespace trajkit::wifi::reference {

class ProvenanceOracle {
 public:
  explicit ProvenanceOracle(double cell_size_m = 4.0) : cell_size_m_(cell_size_m) {}

  /// Fold one reference point into its cell under `uploader`.
  void add(const ReferencePoint& point, UploaderId uploader);

  /// Every (cell, MAC) key, in map order.
  std::vector<ProvenanceGrid::Key> keys() const;

  /// Per-uploader mean RSSIs of (cell at `pos`, `mac`) in uploader-id
  /// order, without `exclude` unless it is the anonymous uploader.
  std::vector<double> uploader_means(const Enu& pos, std::uint64_t mac,
                                     UploaderId exclude = kAnonymousUploader) const;

  /// RobustCellAggregator::estimate's definition over this fold.
  bool estimate(const Enu& pos, std::uint64_t mac,
                const RobustAggregationParams& params, double* out) const;
  /// RobustCellAggregator::consensus_excluding's definition over this fold.
  bool consensus_excluding(const Enu& pos, std::uint64_t mac, UploaderId exclude,
                           const RobustAggregationParams& params, double* out) const;

  /// ProvenanceGrid::serialize's text, walked straight off the maps.
  std::string serialize() const;
  /// FNV-1a of serialize().
  std::uint64_t checksum() const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::map<std::uint64_t, std::map<UploaderId, ApCellStats>> aps;
  };
  const std::map<UploaderId, ApCellStats>* uploaders_at(const Enu& pos,
                                                         std::uint64_t mac) const;

  double cell_size_m_;
  std::uint64_t points_ = 0;
  std::map<CellKey, Cell> cells_;
};

}  // namespace trajkit::wifi::reference
