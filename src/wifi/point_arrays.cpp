#include "wifi/point_arrays.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "common/durable/bytes.hpp"
#include "wifi/validate.hpp"

namespace trajkit::wifi {

PointArrays::PointArrays(const std::vector<ReferencePoint>& points) {
  for (const auto& p : points) append(p);
}

void PointArrays::check(const ReferencePoint& point) const {
  if (point.scan.size() > kMaxScanSize) {
    throw std::length_error("point arrays: a scan holds more than 65535 observations");
  }
  for (const ApObservation& obs : point.scan) {
    if (obs.rssi_dbm < kMinValidRssiDbm || obs.rssi_dbm > kMaxValidRssiDbm) {
      throw std::out_of_range("point arrays: an RSSI lies outside [-120, 30] dBm");
    }
  }
  if (macs_.size() + point.scan.size() <= kMaxAps) return;
  // Near the cap, count the scan's distinct MACs the set has not seen.
  std::vector<std::uint64_t> fresh;
  for (const ApObservation& obs : point.scan) {
    if (ap_id(obs.mac) == kNoAp) fresh.push_back(obs.mac);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  if (macs_.size() + fresh.size() > kMaxAps) {
    throw std::length_error("point arrays: more than 2^24 distinct MACs");
  }
}

void PointArrays::append(const ReferencePoint& point) {
  check(point);
  pos_.push_back(point.pos);
  traj_id_.push_back(point.traj_id);
  for (const ApObservation& obs : point.scan) keys_.push_back(key_of(intern(obs.mac), obs.rssi_dbm));
  offsets_.push_back(keys_.size());
}

PointArrays::PointArrays(std::string_view& image) {
  const auto refuse = [](const std::string& why) {
    throw std::invalid_argument("point image: " + why);
  };
  durable::ByteCursor cur{image};
  std::uint64_t points = 0;
  std::uint64_t aps = 0;
  std::uint64_t keys = 0;
  if (!cur.read(points) || !cur.read(aps) || !cur.read(keys)) refuse("truncated header");
  // A point costs a count, a position and a trajectory id.  Each term is
  // bounded before the sum, so the sum cannot wrap.
  constexpr std::size_t kPointBytes =
      sizeof(std::uint16_t) + sizeof(Enu) + sizeof(std::uint32_t);
  const std::size_t left = cur.remaining();
  if (points > left / kPointBytes || aps > left / sizeof(std::uint64_t) ||
      keys > left / sizeof(std::uint32_t) ||
      points * kPointBytes + aps * sizeof(std::uint64_t) + keys * sizeof(std::uint32_t) >
          left) {
    refuse("header claims " + std::to_string(points) + " points, " + std::to_string(aps) +
           " MACs and " + std::to_string(keys) + " keys, more than the " +
           std::to_string(left) + " bytes that follow hold");
  }
  if (aps > kMaxAps) refuse("more than 2^24 distinct MACs");

  std::vector<std::uint64_t> macs;
  cur.read_array(macs, aps);
  for (std::size_t a = 0; a < macs.size(); ++a) {
    if (intern(macs[a]) != a) refuse("MAC " + std::to_string(macs[a]) + " listed twice");
  }

  std::vector<std::uint16_t> counts;
  cur.read_array(counts, points);
  offsets_.resize(points + 1);
  offsets_[0] = 0;
  for (std::size_t h = 0; h < points; ++h) {
    if (counts[h] > kMaxScanAps) {
      refuse("point " + std::to_string(h) + " holds " + std::to_string(counts[h]) +
             " observations, above " + std::to_string(kMaxScanAps));
    }
    offsets_[h + 1] = offsets_[h] + counts[h];
  }
  if (offsets_.back() != keys) {
    refuse("counts sum to " + std::to_string(offsets_.back()) + ", not the " +
           std::to_string(keys) + " keys");
  }

  cur.read_array(keys_, keys);
  std::uint32_t seen = 0;  // AP ids first seen so far
  for (std::size_t o = 0; o < keys_.size(); ++o) {
    const std::uint32_t ap = keys_[o] >> kRssiBits;
    if ((keys_[o] & kRssiMask) > kMaxValidRssiDbm - kMinValidRssiDbm) {
      refuse("key " + std::to_string(o) + " holds RSSI byte " +
             std::to_string(keys_[o] & kRssiMask) + ", above 150");
    }
    if (ap >= macs_.size()) {
      refuse("key " + std::to_string(o) + " names AP " + std::to_string(ap) +
             " past the " + std::to_string(macs_.size()) + "-entry MAC table");
    }
    if (ap > seen) {
      refuse("key " + std::to_string(o) + " names AP " + std::to_string(ap) +
             " before AP " + std::to_string(seen));
    }
    seen += ap == seen;
  }
  if (seen != macs_.size()) refuse("the MAC table lists MACs no key observes");

  cur.read_array(pos_, points);
  for (std::size_t h = 0; h < pos_.size(); ++h) {
    if (!position_ok(pos_[h])) {
      refuse("point " + std::to_string(h) + ": non-finite or out-of-envelope position");
    }
  }
  cur.read_array(traj_id_, points);
  image.remove_prefix(cur.pos);
}

void PointArrays::append_image(std::string& out) const {
  const std::uint64_t header[] = {pos_.size(), macs_.size(), keys_.size()};
  std::vector<std::uint16_t> counts(pos_.size());
  for (std::size_t h = 0; h < counts.size(); ++h) {
    counts[h] = static_cast<std::uint16_t>(offsets_[h + 1] - offsets_[h]);
  }
  out.reserve(out.size() + sizeof header + macs_.size() * sizeof(std::uint64_t) +
              counts.size() * sizeof(std::uint16_t) + keys_.size() * sizeof(std::uint32_t) +
              pos_.size() * sizeof(Enu) + traj_id_.size() * sizeof(std::uint32_t));
  durable::append_array(out, header, std::size(header));
  durable::append_array(out, macs_.data(), macs_.size());
  durable::append_array(out, counts.data(), counts.size());
  durable::append_array(out, keys_.data(), keys_.size());
  durable::append_array(out, pos_.data(), pos_.size());
  durable::append_array(out, traj_id_.data(), traj_id_.size());
}

ReferencePoint PointArrays::point(std::size_t h) const {
  ReferencePoint p{pos_[h], {}, traj_id_[h]};
  p.scan.reserve(offsets_[h + 1] - offsets_[h]);
  for (std::size_t o = offsets_[h]; o < offsets_[h + 1]; ++o) {
    p.scan.push_back({macs_[keys_[o] >> kRssiBits],
                      static_cast<int>(keys_[o] & kRssiMask) + kMinValidRssiDbm});
  }
  return p;
}

std::size_t PointArrays::home_slot(std::uint64_t mac) const {
  return static_cast<std::size_t>((mac * 0x9e3779b97f4a7c15ull) >> 32) & (ap_slots_.size() - 1);
}

std::uint32_t PointArrays::ap_id(std::uint64_t mac) const {
  for (std::size_t i = home_slot(mac);; i = (i + 1) & (ap_slots_.size() - 1)) {
    if (ap_slots_[i].id == kNoAp || ap_slots_[i].mac == mac) return ap_slots_[i].id;
  }
}

std::uint32_t PointArrays::intern(std::uint64_t mac) {
  std::size_t i = home_slot(mac);
  for (; ap_slots_[i].id != kNoAp; i = (i + 1) & (ap_slots_.size() - 1)) {
    if (ap_slots_[i].mac == mac) return ap_slots_[i].id;
  }
  const auto id = static_cast<std::uint32_t>(macs_.size());
  macs_.push_back(mac);
  ap_slots_[i] = {mac, id};
  if (2 * macs_.size() > ap_slots_.size()) {
    // Double the table and re-probe every MAC, in id order.
    ap_slots_.assign(2 * ap_slots_.size(), ApSlot{});
    for (std::uint32_t a = 0; a < macs_.size(); ++a) {
      std::size_t j = home_slot(macs_[a]);
      while (ap_slots_[j].id != kNoAp) j = (j + 1) & (ap_slots_.size() - 1);
      ap_slots_[j] = {macs_[a], a};
    }
  }
  return id;
}

}  // namespace trajkit::wifi
