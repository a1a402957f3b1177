// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
//
// Every durable artifact in trajkit — framed model files, the crowdsource
// write-ahead journal, snapshots — carries one CRC per record plus one per
// file, so a torn write or a flipped byte is detected at load time instead of
// silently feeding garbage into the detector.  The implementation is
// slicing-by-8: eight constexpr 256-entry tables fold one 8-byte word per
// step (~5x the classic byte-at-a-time table), then a byte-wise tail.  It is
// deterministic, allocation-free and gives the classic table's values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace trajkit::durable {

/// CRC-32 of `data`; pass a previous result as `seed` to checksum a file in
/// chunks (the final value is identical to one call over the concatenation).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

}  // namespace trajkit::durable
