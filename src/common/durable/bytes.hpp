// Native-endian binary encoding shared by the durable formats: append
// trivially copyable values and arrays to a byte string, and read them back
// through a bounds-checked cursor over an immutable image.  Like the framed
// container (durable_file.hpp), every format targets one little-endian
// architecture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace trajkit::durable {

/// Append `n` values starting at `data`, byte for byte.
template <typename T>
void append_array(std::string& out, const T* data, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (n == 0) return;  // an empty vector's data() may be null
  out.append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

template <typename T>
void append_pod(std::string& out, const T& v) {
  append_array(out, &v, 1);
}

inline void append_u32(std::string& out, std::uint32_t v) { append_pod(out, v); }
inline void append_u64(std::string& out, std::uint64_t v) { append_pod(out, v); }

/// Cursor over an immutable byte image: every read checks the bytes that
/// remain and returns false, without moving, instead of walking past the end.
struct ByteCursor {
  std::string_view data;
  std::size_t pos = 0;

  std::size_t remaining() const { return data.size() - pos; }

  bool read_bytes(void* out, std::size_t n) {
    if (remaining() < n) return false;
    if (n == 0) return true;  // memcpy forbids the null `out` of an empty vector
    std::memcpy(out, data.data() + pos, n);
    pos += n;
    return true;
  }
  template <typename T>
  bool read(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return read_bytes(&out, sizeof out);
  }
  bool read_u32(std::uint32_t& out) { return read(out); }
  bool read_u64(std::uint64_t& out) { return read(out); }
  bool read_view(std::string_view& out, std::size_t n) {
    if (remaining() < n) return false;
    out = data.substr(pos, n);
    pos += n;
    return true;
  }
  /// `n` values into `out`; the count is checked against the remaining
  /// bytes before `out` allocates anything.
  template <typename T>
  bool read_array(std::vector<T>& out, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > remaining() / sizeof(T)) return false;
    out.resize(n);
    return read_bytes(out.data(), n * sizeof(T));
  }
};

}  // namespace trajkit::durable
