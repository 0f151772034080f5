#ifndef UJOIN_UTIL_SERDE_H_
#define UJOIN_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ujoin {

/// \brief Little binary serialization layer used for index persistence.
///
/// Values are written in native byte order with explicit sizes; strings and
/// vectors are length-prefixed with uint64.  The reader bounds-checks every
/// access and reports corruption as Status instead of crashing, so loading
/// an untrusted or truncated file is safe.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    Append(s.data(), s.size());
  }

  const std::string& buffer() const { return buffer_; }

  /// Writes the accumulated buffer to `path` atomically enough for tests
  /// (write + rename is overkill here; document non-atomicity).
  Status WriteToFile(const std::string& path) const;

 private:
  void Append(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  std::string buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string buffer) : buffer_(std::move(buffer)) {}

  /// Reads a whole file into a reader.
  static Result<BinaryReader> FromFile(const std::string& path);

  Result<uint8_t> ReadU8() { return ReadScalar<uint8_t>(); }
  Result<uint32_t> ReadU32() { return ReadScalar<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadScalar<uint64_t>(); }
  Result<int32_t> ReadI32() { return ReadScalar<int32_t>(); }
  Result<int64_t> ReadI64() { return ReadScalar<int64_t>(); }
  Result<double> ReadDouble() { return ReadScalar<double>(); }

  /// Reads an element count and rejects one that the remaining bytes
  /// cannot hold at `min_bytes_each` bytes per element, so a corrupt count
  /// fails here instead of driving a huge reserve().
  Result<uint64_t> ReadCount(size_t min_bytes_each) {
    Result<uint64_t> count = ReadU64();
    if (count.ok() && *count > (buffer_.size() - offset_) / min_bytes_each) {
      return Corrupt("count exceeds remaining bytes");
    }
    return count;
  }

  Result<std::string> ReadString() {
    Result<uint64_t> size = ReadCount(1);
    if (!size.ok()) return size.status();
    std::string out = buffer_.substr(offset_, *size);
    offset_ += *size;
    return out;
  }

  /// True when every byte has been consumed.
  bool AtEnd() const { return offset_ == buffer_.size(); }

 private:
  template <typename T>
  Result<T> ReadScalar() {
    if (sizeof(T) > buffer_.size() - offset_) {
      return Corrupt("scalar read past end of buffer");
    }
    T v;
    std::memcpy(&v, buffer_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return v;
  }

  static Status Corrupt(const char* what) {
    return Status::InvalidArgument(std::string("corrupt input: ") + what);
  }

  std::string buffer_;
  size_t offset_ = 0;
};

}  // namespace ujoin

#endif  // UJOIN_UTIL_SERDE_H_
